"""Outside-in layer tracing of ospring.

The tracer replaces module-level entry points of each ospring module with
wrappers, by ``setattr`` on every ospring module that binds them.  Calls made
inside the package look module globals up at call time, so they pass through
the wrappers too.  Nothing under ``src/`` changes.

A span is ``[id, name, start_ns, end_ns, parent_id, op_id, counters]``.
Spans stay in memory and are written once, at the end of a traced run.  A
span's self time is its duration minus the union of the intervals its child
spans cover; calls made on the worker threads of ``regime_map`` are children
of the span that was open on the main thread when they started.

This module imports only the standard library, so that timing the import of
ospring in a fresh interpreter is not disturbed by it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module, attribute) entry points wrapped as spans.
TARGETS = (
    ("runconfig", "load_config"),
    ("runconfig", "RunConfig.interferometer"),
    ("cavity", "effective_cavity"),
    ("cavity", "resonance_denominator"),
    ("transfer_optics", "field_matrices"),
    ("backaction", "kernel_exact"),
    ("backaction", "kernel_narrowband"),
    ("noise", "back_action_spectrum"),
    ("stability", "stability_report"),
    ("stability", "find_zero_crossings"),
    ("stability", "routh_hurwitz_stable"),
    ("stability", "roots_stable"),
    ("stability", "regime_map"),
    ("cli", "main"),
    ("cli", "_emit_table"),
    ("cli", "_meta"),
)

# Entry points whose calls are only counted: they are called thousands of
# times per op and cost microseconds each, so a span per call would cost
# more than the call.  Their time stays in their caller's self time.
COUNTED = (
    ("cavity", "dark_port_phase"),
    ("cavity", "with_total_detuning"),
    ("transfer_optics", "effective_mirror"),
    ("stability", "characteristic_polynomial"),
    ("backaction", "spring_damping_dc"),
)


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_points(index, name):
    def prepare(tracer, counters, args, kwargs):
        counters["points"] = _size(_arg(args, kwargs, index, name))
        return args, kwargs
    return prepare


def _count_narrowband_points(tracer, counters, args, kwargs):
    import numpy as np

    omega = _arg(args, kwargs, 5, "omega")
    detuning = _arg(args, kwargs, 6, "detuning")
    counters["points"] = int(np.broadcast(omega, 0.0 if detuning is None else detuning).size)
    return args, kwargs


def _count_f_evals(tracer, counters, args, kwargs):
    f = args[0]
    counters["f_evals"] = 0

    def counted(x):
        counters["f_evals"] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _count_rows(tracer, counters, args, kwargs):
    counters["rows"] = _size(_arg(args, kwargs, 2, "offsets"))
    counters["cpu_ns"] = -time.process_time_ns()
    return args, kwargs


def _count_cells(tracer, counters, args, kwargs):
    header, columns = args[0], args[1]
    counters["cells"] = len(header) * len(columns[0])
    return args, kwargs


PREPARE = {
    "cavity.resonance_denominator": _count_points(1, "omega"),
    "backaction.kernel_exact": _count_points(1, "omega"),
    "noise.back_action_spectrum": _count_points(1, "omega"),
    "backaction.kernel_narrowband": _count_narrowband_points,
    "stability.find_zero_crossings": _count_f_evals,
    "stability.regime_map": _count_rows,
    "cli._emit_table": _count_cells,
}


class Tracer:
    """In-memory span recorder with installable ospring wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._undo = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name, start_ns=None):
        stack = self._stack()
        top = stack or self._main_stack
        parent = top[-1][0] if top else None
        span = [next(self._ids), name, start_ns or time.perf_counter_ns(), None, parent,
                self.op, {}]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span, end_ns=None):
        span[3] = end_ns or time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name, n=1):
        # regime_map calls into the package from a thread pool
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn):
        prepare = PREPARE.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                if prepare is not None:
                    args, kwargs = prepare(tracer, span[6], args, kwargs)
                return fn(*args, **kwargs)
            finally:
                if "cpu_ns" in span[6]:
                    span[6]["cpu_ns"] += time.process_time_ns()
                tracer.close(span)

        return wrapper

    def wrap_counted(self, name, fn):
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target wherever an ospring module binds it."""
        if self._undo:
            return
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "ospring" or k.startswith("ospring."))]
        for targets, wrap in ((TARGETS, self.wrap), (COUNTED, self.wrap_counted)):
            for module_name, attr in targets:
                module = sys.modules[f"ospring.{module_name}"]
                name = f"{module_name}.{attr.split('.')[-1]}"
                if "." in attr:
                    owner_name, method = attr.split(".")
                    owner = getattr(module, owner_name)
                    self._swap(owner, method, wrap(name, getattr(owner, method)))
                    continue
                original = getattr(module, attr)
                wrapper = wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, key, wrapper)
        self._install_counters(sys.modules["ospring.cli"], sys.modules["ospring.cavity"])

    def _install_counters(self, cli, cavity):
        tracer = self
        write_text = cli._write_text

        def counted_write(path, text):
            span = tracer.current()
            if span is not None:
                span[6]["bytes"] = span[6].get("bytes", 0) + len(text.encode("utf-8"))
            return write_text(path, text)

        real_warnings = cavity.warnings

        class CountingWarnings:
            """Stands in for the warnings module inside ospring.cavity."""

            def __getattr__(self, key):
                return getattr(real_warnings, key)

            def warn(self, message, category=None, stacklevel=1, **kwargs):
                tracer.count("cavity.narrowband_warnings")
                return real_warnings.warn(message, category, stacklevel + 1, **kwargs)

        self._swap(cli, "_write_text", counted_write)
        self._swap(cavity, "warnings", CountingWarnings())

    def _swap(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)



FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op")


def write_spans(path, spans):
    """Write spans as JSON lines, one object per span with its counters."""
    with open(path, "w", encoding="utf-8") as handle:
        for *fields, counters in spans:
            handle.write(json.dumps(dict(zip(FIELDS, fields), **counters)) + "\n")


def load_spans(path, id_offset=0):
    """Spans of a file written by :func:`write_spans`, ids shifted by id_offset,
    and the summary line a traced CLI op appends (or None)."""
    spans, summary = [], None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if "exit" in row:
                summary = row
                continue
            sid, name, start, end, parent, op = (row.pop(k) for k in FIELDS)
            spans.append([sid + id_offset, name, start, end,
                          None if parent is None else parent + id_offset, op, row])
    return spans, summary


def _union_ns(intervals, lo, hi):
    covered, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans) -> dict:
    """span id -> self time (ns): duration minus the union of child intervals."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2]) - _union_ns(children.get(span[0], ()), span[2], span[3])
        for span in spans
    }


def aggregate(spans, counts=None) -> dict:
    """name -> {"calls", "self_ns", "wall_ns", counter totals...}.

    ``counts`` adds the calls of count-only entry points.
    """
    own = self_times(spans)
    out = {}
    for name, calls in (counts or {}).items():
        out[name] = {"calls": calls, "self_ns": 0, "wall_ns": 0}
    for span in spans:
        row = out.setdefault(span[1], {"calls": 0, "self_ns": 0, "wall_ns": 0})
        row["calls"] += 1
        row["self_ns"] += own[span[0]]
        row["wall_ns"] += span[3] - span[2]
        for key, value in span[6].items():
            row[key] = row.get(key, 0) + value
    return out
