"""The ospring benchmark.

    python3 perfbench/run.py --workload {cli-cold,cli-map,lib-sweeps} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --write-benchmark-json

Run from the root of an ospring checkout; the package is imported from its
``src/`` directory and nowhere else.  Generated inputs, outputs and spans go
under ``.bench_build/perfbench/``.  With ``--trace 0`` the last stdout line
is a JSON object with the end-to-end metrics, with ``--trace 1`` one with
the per-layer metrics of a separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import inputs
import spec
import stats
from spans import aggregate, load_spans, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT_ROOT = ROOT / ".bench_build" / "perfbench"

# Fresh interpreters per run; setup_s is their median.  They are split
# between before and after the timed ops, so that a passing burst of load
# on the machine shifts few of them.
SETUP_BEFORE, SETUP_AFTER = 3, 4
TRACE_STARTUPS = 3
IMPORTTIME_RUNS = 3
OP_TIMEOUT_S = 60
THREAD_VARIABLES = ("OSPRING_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to an op failing)."""


# ---------------------------------------------------------------- environment

def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "ospring").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(src).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "ospring_commit": _git_commit(ROOT),
        "ospring_source_sha256": _source_digest(SRC),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for a started child; return its exit code and its own peak RSS in MiB.

    ``os.wait4`` gives the resource usage of that one child, so no other
    process of the benchmark counts in it.  A child still running after
    ``timeout`` seconds is killed and reads as a negative exit code.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def run_worker(mode, workload, seed, run_dir: Path, tag, seconds=0.0, timeout=170):
    """Start a fresh worker interpreter, wait for it and return its result,
    with its peak RSS added as ``peak_rss_mb``."""
    result = run_dir / f"{tag}.json"
    log = run_dir / f"{tag}.log"
    argv = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
            "--seed", str(seed), "--src", str(SRC), "--dir", str(run_dir / "inputs"),
            "--result", str(result), "--seconds", str(seconds)]
    with open(log, "w", encoding="utf-8") as handle:
        spawn = time.perf_counter_ns()
        proc = subprocess.Popen(argv + ["--spawn-ns", str(spawn)], stdout=handle,
                                stderr=subprocess.STDOUT, env=child_env())
        rc, peak_rss_mb = wait_child(proc, timeout)
    if rc != 0 or not result.is_file():
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        raise BenchError(f"{mode} worker exited {rc}: {' | '.join(tail)}")
    return dict(json.loads(result.read_text(encoding="utf-8")), peak_rss_mb=peak_rss_mb)


def setup_times(workload, seed, run_dir, n, warm=True, first=0):
    """Set-up results of n fresh start-ups, after one unmeasured start-up
    (it may compile bytecode) when ``warm``."""
    if warm:
        run_worker("setup", workload, seed, run_dir, "setup-warm")
    return [run_worker("setup", workload, seed, run_dir, f"setup-{i}")
            for i in range(first, first + n)]


def importtime_scipy_ms() -> float:
    """Median time importing scipy takes inside ``import ospring``, from -X importtime."""
    values = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ospring"],
                              capture_output=True, text=True, env=child_env(), timeout=60)
        if proc.returncode != 0:
            raise BenchError("python -X importtime -c 'import ospring' failed")
        values.append(scipy_import_us(proc.stderr) / 1e3)
    return statistics.median(values)


def scipy_import_us(importtime_log: str) -> int:
    """Cumulative microseconds of the outermost scipy imports in an importtime log."""
    entries = []
    for line in importtime_log.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # not an importtime line, or its header
        name = fields[2]
        depth = len(name) - len(name.lstrip(" "))
        entries.append((depth, name.strip(), int(fields[1])))
    total, scipy_depth = 0, None
    # the log is post-order (children first); walk it backwards in pre-order
    for depth, name, cumulative in reversed(entries):
        if scipy_depth is not None and depth <= scipy_depth:
            scipy_depth = None
        if scipy_depth is None and (name == "scipy" or name.startswith("scipy.")):
            total += cumulative
            scipy_depth = depth
    return total


# ---------------------------------------------------------------- cold CLI ops

def cold_argv(op, inputs_dir: Path, out: Path):
    argv = [op["subcommand"], "--config", str(inputs_dir / op["cfg"]), "--out", str(out)]
    if op["method"]:
        argv += ["--method", op["method"]]
    if op["format"] in ("csv", "json"):
        argv += ["--format", op["format"]]
    return argv


def check_cold(op, rc, out: Path):
    """(failure or None, rows emitted, golden deviation or None) of a cold op."""
    if rc != 0:
        return f"exit code {rc}", 0, None
    sub = op["subcommand"]
    if op["format"] == "text":
        text = out.read_text(encoding="utf-8")
        check = {"cavity": checks.check_cavity, "darkport": checks.check_darkport,
                 "validate": checks.check_validate}[sub]
        return check(text), 0, None
    header, columns = checks.read_table(out, op["format"])
    expected = {"backaction": checks.BACKACTION_HEADER, "spectrum": checks.SPECTRUM_HEADER,
                "stability": checks.STABILITY_HEADER}[sub]
    rows = op["rows"]
    failure = checks.check_table(header, columns, expected, rows)
    if failure is None and sub == "spectrum":
        failure = checks.check_spectrum(header, columns)
    deviation = None
    if failure is None and op["kind"] == "preset":
        deviation, failure = checks.golden_deviation(header, columns,
                                                     GOLDEN / f"{op['preset']}.csv")
    return failure, rows, deviation


class ColdClient:
    """Closed-loop, one-client runner of fresh ``python -m ospring.cli`` ops."""

    def __init__(self, run_dir: Path, pool):
        self.run_dir = run_dir
        self.inputs = run_dir / "inputs"
        self.pool = pool
        self.env = child_env()
        self.attempted = 0
        self.failures = []
        self.golden = {}
        self.peak_rss_mb = 0.0  # the largest over the op processes

    def warm_up(self, seed):
        """The first two ops of the seed's first cycle, checked but not timed."""
        for i, index in enumerate(inputs.cycle_order(seed, 0, len(self.pool))[:2]):
            self.run(index, f"warm-up {i}")

    def spans_path(self, trace_op):
        return self.run_dir / f"spans-op{trace_op:03d}.jsonl"

    def run(self, index, label, trace_op=None):
        op = self.pool[index]
        out = self.run_dir / f"out-{index:02d}.{op['format']}"
        argv = cold_argv(op, self.inputs, out)
        with open(self.run_dir / "cold-stderr.log", "a", encoding="utf-8") as err:
            t0 = time.perf_counter_ns()
            if trace_op is None:
                cmd = [sys.executable, "-m", "ospring.cli"] + argv
            else:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), "--op", str(trace_op),
                       "--spans", str(self.spans_path(trace_op)), "--spawn-ns", str(t0),
                       "--"] + argv
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env)
            rc, peak_rss_mb = wait_child(proc, OP_TIMEOUT_S)
            elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb)
        try:
            failure, rows, deviation = check_cold(op, rc, out)
        except (ValueError, KeyError, OSError) as exc:
            failure, rows, deviation = f"unreadable output: {exc}", 0, None
        if deviation is not None:
            self.golden[op["preset"]] = max(deviation, self.golden.get(op["preset"], 0.0))
        if failure:
            self.failures.append(f"{label} {op['kind']} {op['preset']} {op['subcommand']} "
                                 f"({op['cfg']}): {failure}")
        return elapsed_ms, rows


def cold_timed(client: ColdClient, seed, seconds, pct):
    n = len(client.pool)
    client.warm_up(seed)
    samples, rows, start, cycle = [], 0, time.perf_counter(), 1
    while True:
        for index in inputs.cycle_order(seed, cycle, n):
            ms, emitted = client.run(index, f"op {len(samples)}")
            samples.append(ms)
            rows += emitted
        cycle += 1
        if time.perf_counter() - start >= seconds and stats.enough_samples(len(samples), pct):
            return samples, rows


# ---------------------------------------------------------------- per-layer metrics

def layer_metrics(agg: dict, n_ops: int) -> dict:
    """Per-layer span metrics of spec.PER_LAYER from aggregated spans.

    Counts are totals over the traced ops; times are per traced op.
    """
    values = {}
    for name in spec.PER_LAYER:
        if name.startswith(("import.", "trace.", "check.")) or name.count(".") != 2:
            continue
        head, _, metric = name.rpartition(".")
        row = agg.get(head, {})
        self_ns = row.get("self_ns", 0)
        if metric == "self_ms":
            values[name] = self_ns / 1e6 / n_ops
        elif metric == "ns_per_point":
            values[name] = self_ns / row["points"] if row.get("points") else 0.0
        elif metric == "ns_per_cell":
            values[name] = self_ns / row["cells"] if row.get("cells") else 0.0
        elif metric == "cpu_over_wall":
            values[name] = row["cpu_ns"] / row["wall_ns"] if row.get("wall_ns") else 0.0
        else:
            values[name] = row.get(metric, 0)
    return values


def print_layer_table(agg: dict, n_ops: int):
    print(f"per-layer self time and counts over {n_ops} traced ops (times per op):")
    for name, row in sorted(agg.items(), key=lambda kv: -kv[1]["self_ns"]):
        extra = " ".join(f"{k}={v}" for k, v in row.items()
                         if k not in ("calls", "self_ns", "wall_ns", "cpu_ns"))
        timing = f"self {row['self_ns'] / 1e6 / n_ops:10.3f} ms" if row["wall_ns"] else \
            "counted only     "
        print(f"  {name:40s} {timing}  calls {row['calls']:7d}  {extra}")


# ---------------------------------------------------------------- workloads

def timed_run(workload, seed, seconds, run_dir):
    pct = spec.WORKLOADS[workload][0]
    setups = setup_times(workload, seed, run_dir, SETUP_BEFORE)
    if workload == "cli-cold":
        pool = json.loads((run_dir / "inputs" / "ops.json").read_text(encoding="utf-8"))
        client = ColdClient(run_dir, pool)
        samples, points = cold_timed(client, seed, seconds, pct)
        attempted, failures, golden = client.attempted, client.failures, client.golden
        peak_rss_mb, rss_note = client.peak_rss_mb, f"largest of {attempted} op processes"
        after = SETUP_AFTER
    else:
        # the process that runs the ops is itself one of the start-ups
        work = run_worker("run", workload, seed, run_dir, "run", seconds, timeout=seconds + 150)
        setups.append(work)
        samples, points = work["samples_ms"], work["points"]
        attempted, failures, golden = work["attempted"], work["failures"], {}
        after = SETUP_AFTER - 1
        # the run worker also checks every op in-process; peak RSS comes from
        # a fresh process that runs the pool's ops once and nothing else
        rss = run_worker("rss", workload, seed, run_dir, "rss")
        peak_rss_mb = rss["peak_rss_mb"]
        rss_note = f"fresh process that ran the {rss['ops']} pool ops once, unchecked"
    setups += setup_times(workload, seed, run_dir, after, warm=False, first=SETUP_BEFORE)
    # Linux starts a child's ru_maxrss at the RSS of its parent, this process;
    # it holds no numpy and little data, so that floor stays below any op's
    floor_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if floor_mb >= peak_rss_mb:
        raise BenchError(f"run.py's own peak RSS {floor_mb:.1f} MiB hides the ops' "
                         f"{peak_rss_mb:.1f} MiB")
    p50, tail = stats.p50_and_tail(samples, pct)
    setup = [s["setup_s"] for s in setups]
    metrics = {
        "op_ms_p50": p50,
        "op_ms_tail": tail,
        "points_per_s": points / (sum(samples) / 1e3),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "op_ms_p50": f"median of {len(samples)} timed ops",
        "op_ms_tail": f"p{pct} of the same {len(samples)} ops, "
                      f"{stats.beyond(len(samples), pct)} samples beyond it",
        "points_per_s": f"{points} grid points in {sum(samples) / 1e3:.3f} s of ops",
        "setup_s": "median of fresh start-ups " + ", ".join(f"{s:.4f}" for s in setup),
        "peak_rss_mb": f"{rss_note}; run.py itself {floor_mb:.1f} MiB",
    }
    return metrics, notes, attempted, failures, golden


def traced_run(workload, seed, run_dir):
    """Per-layer metrics of one traced op cycle, each op also run untraced."""
    if workload == "cli-cold":
        setup_times(workload, seed, run_dir, 0)
        pool = json.loads((run_dir / "inputs" / "ops.json").read_text(encoding="utf-8"))
        client = ColdClient(run_dir, pool)
        client.warm_up(seed)
        plain, traced, spans, imports, modules, counts = [], [], [], [], set(), {}
        for i, index in enumerate(inputs.cycle_order(seed, 1, len(pool))):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                ms, _ = client.run(index, f"{'traced ' if with_trace else ''}op {i}",
                                   trace_op=i if with_trace else None)
                (traced if with_trace else plain).append(ms)
            if not client.spans_path(i).is_file():
                continue  # the traced op failed before tracing; counted in failures
            # span ids restart at 0 in every traced interpreter
            op_spans, summary = load_spans(client.spans_path(i), len(spans))
            spans += op_spans
            imports += [(s[3] - s[2]) / 1e6 for s in op_spans if s[1] == "import"]
            if summary is not None:
                modules.add(summary["modules"])
                for key, value in summary["counts"].items():
                    counts[key] = counts.get(key, 0) + value
        n_ops = len(pool)
        attempted, failures, golden = client.attempted, client.failures, client.golden
    else:
        setups = setup_times(workload, seed, run_dir, TRACE_STARTUPS - 1)
        work = run_worker("traced", workload, seed, run_dir, "traced")
        plain, traced, n_ops = work["plain_ms"], work["traced_ms"], work["ops"]
        spans, _ = load_spans(run_dir / "inputs" / work["spans"], 0)
        imports = [s["import_ms"] for s in setups + [work]]
        modules = {s["modules"] for s in setups + [work]}
        counts = work["counts"]
        attempted, failures, golden = work["attempted"], work["failures"], {}

    write_spans(run_dir / "spans.jsonl", spans)
    agg = aggregate([s for s in spans if s[1] != "import"], counts)
    metrics = layer_metrics(agg, n_ops)
    plain_p50, traced_p50 = statistics.median(plain), statistics.median(traced)
    metrics.update({
        "import.wall_ms": statistics.median(imports),
        "import.scipy_ms": importtime_scipy_ms(),
        "import.modules": max(modules, default=0),
        "cavity.narrowband_warnings": counts.get("cavity.narrowband_warnings", 0),
        "trace.overhead_pct": 100.0 * (traced_p50 - plain_p50) / plain_p50,
        "trace.ops": n_ops,
        "check.failed_frac": len(failures) / attempted,
    })
    for preset in spec.PRESETS:
        metrics[f"check.golden_max_rel_dev.{preset}"] = golden.get(preset, 0.0)
    print_layer_table(agg, n_ops)
    print(f"untraced op_ms_p50 {plain_p50:.3f} ms, traced {traced_p50:.3f} ms "
          f"over {n_ops} ops each")
    print(f"spans: {run_dir / 'spans.jsonl'}")
    return metrics, {}, attempted, failures, golden


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "ospring" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"perfbench: no ospring sources under {SRC} (run from an ospring checkout)",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    env = environment()
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    try:
        if args.trace:
            metrics, notes, attempted, failures, golden = traced_run(
                args.workload, args.seed, run_dir)
            units = {name: spec.PER_LAYER[name][0] for name in spec.PER_LAYER}
        else:
            metrics, notes, attempted, failures, golden = timed_run(
                args.workload, args.seed, args.seconds, run_dir)
            units = {name: spec.END_TO_END[name][0] for name in spec.END_TO_END}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())

    print("environment " + json.dumps(env))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {units[name]}{note}")
    print(f"failed_frac = {len(failures) / attempted!r} ratio  "
          f"({len(failures)} of {attempted} ops failed their check)")
    for preset, deviation in sorted(golden.items()) if not args.trace else ():
        print(f"check.golden_max_rel_dev.{preset} = {deviation!r} "
              f"(tolerance {checks.GOLDEN_REL_TOL:g} of the column peak)")
    for failure in failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(dict(result, environment=env), indent=1)
                                         + "\n", encoding="utf-8")
    if any(not math.isfinite(v) for v in metrics.values()):
        print("perfbench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
