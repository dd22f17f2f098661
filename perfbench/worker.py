"""One fresh interpreter of the benchmark: set up, then (optionally) run ops.

    python perfbench/worker.py --mode {setup,run,traced,rss} --workload W --seed N \
        --src SRC --dir DIR --result FILE --spawn-ns T [--seconds S]

``--spawn-ns`` is the parent's ``time.perf_counter_ns()`` just before it
started this process; perf_counter is CLOCK_MONOTONIC on Linux, so set-up
time is measured from interpreter start to ready-for-the-first-op.

setup   import ospring and generate the inputs, then report set-up time;
run     also run the workload's timed closed loop (cli-map, lib-sweeps);
traced  also run one pool cycle twice, traced and untraced, alternating;
rss     read the pool that a set-up wrote and run each op once, unchecked,
        so that the process's peak RSS is the program's alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import checks
import inputs
import spec
from spans import Tracer, write_spans
from stats import enough_samples

WARMUP_OPS = 2


def _import_ospring(src: Path, tracer: Tracer, spawn_ns: int):
    span = tracer.open("import", start_ns=spawn_ns)
    before = len(sys.modules)
    import ospring
    import ospring.cli

    tracer.close(span)
    modules = len(sys.modules) - before
    origin = Path(ospring.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"ospring imported from {origin}, not from {src}")
    return ospring, span, modules


class MapOps:
    """cli-map: ``ospring.cli.main(["map", ...])`` into the run directory."""

    def __init__(self, ospring, pool, work_dir: Path):
        self.cli = ospring.cli
        self.pool = pool
        self.work_dir = work_dir

    def run(self, op):
        out = self.work_dir / f"out-{op['cfg']}.{op['format']}"
        argv = ["map", "--config", str(self.work_dir / op["cfg"]), "--out", str(out),
                "--format", op["format"]]
        return self.cli.main(argv), out

    def check(self, op, outcome):
        rc, out = outcome
        if rc != 0:
            return f"exit code {rc}", 0
        header, columns = checks.read_table(out, op["format"])
        return checks.check_table(header, columns, checks.MAP_HEADER, op["rows"]), op["rows"]


class LibOps:
    """lib-sweeps: public library calls on one seeded operating point each."""

    def __init__(self, ospring, pool, work_dir: Path):
        import math

        import numpy as np

        self.np = np
        self.osp = ospring
        self.pool = []
        geometry = ospring.Geometry(0.05, 0.027, 0.01, 1064e-9)
        for op in pool:
            base = ospring.InterferometerConfig(
                geometry=geometry,
                membrane=ospring.MirrorParams.from_power_reflectivity(
                    op["membrane_power_reflectivity"]),
                srm=ospring.MirrorParams.from_power_transmissivity(op["sr_power_transmissivity"]),
                bs=ospring.BeamsplitterParams(op["bs_asymmetry"]),
                input_power=op["input_power_w"],
                dark_port_index=op["dark_port_index"],
                offset=op["offset_xi_lambda0"] * geometry.wavelength,
            )
            gamma = ospring.effective_cavity(base).half_linewidth
            config = ospring.with_total_detuning(base, op["detuning_over_gamma"] * gamma)
            oscillator = ospring.MechanicalOscillator(
                op["mass_kg"], 2.0 * math.pi * op["mech_freq_hz"],
                2.0 * math.pi * op["mech_damping_hz"])
            self.pool.append(dict(op, config=config, oscillator=oscillator))

    def run(self, op):
        np, osp = self.np, self.osp
        config, oscillator = op["config"], op["oscillator"]
        gamma = osp.effective_cavity(config).half_linewidth
        kernel = osp.kernel_exact(config, np.linspace(0.01, 5.0, op["kernel_points"]) * gamma)
        spectrum = osp.back_action_spectrum(
            config, np.linspace(-5.0, 5.0, op["spectrum_points"]) * gamma)
        deltas = np.linspace(-3.0, 3.0, op["detuning_points"]) * gamma
        w = oscillator.resonance_frequency
        # the fig2d exact sweep as the CLI runs it: one scalar call per detuning
        detuning_kernel = np.array(
            [complex(osp.kernel_exact(osp.with_total_detuning(config, d), w)) for d in deltas])
        report = osp.stability_report(config, oscillator, deltas, w)
        return {"kernel": kernel, "spectrum": spectrum,
                "detuning_kernel": detuning_kernel, "report": report}

    def check(self, op, outcome):
        points = op["kernel_points"] + op["spectrum_points"] + 2 * op["detuning_points"]
        return checks.check_lib_op(outcome), points


def _one(ops, op, tracer=None, op_id=None):
    """Run and check one op; returns (ns, points, failure or None)."""
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
    raised = None
    t0 = time.perf_counter_ns()
    try:
        outcome = ops.run(op)
    except Exception:  # an op that raises is a failed op, not a crashed run
        raised = "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
    elapsed = time.perf_counter_ns() - t0
    if tracer is not None:
        tracer.uninstall()
    if raised:
        return elapsed, 0, raised
    try:
        failure, points = ops.check(op, outcome)
    except (ValueError, KeyError, OSError) as exc:
        failure, points = f"unreadable output: {exc}", 0
    return elapsed, points, failure


def _describe(op, index):
    return f"op {index} ({op.get('cfg') or op.get('kind')})"


def _warm_up(ops, failures) -> int:
    """Run the first ops of the pool, checked but not timed."""
    for i in range(WARMUP_OPS):
        op = ops.pool[i % len(ops.pool)]
        failure = _one(ops, op)[2]
        if failure:
            failures.append(f"warm-up {_describe(op, i)}: {failure}")
    return WARMUP_OPS


def timed_loop(ops, seconds: float, pct: float):
    """Warm-up ops, then whole pool cycles until both the time and the tail
    sample count are reached."""
    failures, samples, points = [], [], 0
    attempted = _warm_up(ops, failures)
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops.pool):
            ns, n_points, failure = _one(ops, op)
            attempted += 1
            samples.append(ns / 1e6)
            points += n_points
            if failure:
                failures.append(f"{_describe(op, i)}: {failure}")
        if time.perf_counter() - start >= seconds and enough_samples(len(samples), pct):
            break
    return {"samples_ms": samples, "points": points, "attempted": attempted,
            "failures": failures}


def traced_cycle(ops, tracer: Tracer):
    """One pool cycle, each op once untraced and once traced (order alternating)."""
    failures, plain, traced = [], [], []
    attempted = _warm_up(ops, failures)
    for i, op in enumerate(ops.pool):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            ns, _, failure = _one(ops, op, tracer if with_trace else None, i)
            attempted += 1
            (traced if with_trace else plain).append(ns / 1e6)
            if failure:
                failures.append(f"{'traced ' if with_trace else ''}{_describe(op, i)}: {failure}")
    return {"plain_ms": plain, "traced_ms": traced, "attempted": attempted,
            "failures": failures, "ops": len(ops.pool)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "traced", "rss"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    tracer = Tracer()
    ospring, import_span, modules = _import_ospring(args.src, tracer, args.spawn_ns)
    if args.mode == "rss":
        pool = json.loads((args.dir / "ops.json").read_text(encoding="utf-8"))
    else:
        pool = inputs.generate(args.workload, args.seed, args.src / "ospring" / "presets",
                               args.dir)
    ops = None
    if args.mode != "setup":
        ops = {"cli-map": MapOps, "lib-sweeps": LibOps}[args.workload](ospring, pool, args.dir)
    ready_ns = time.perf_counter_ns()

    result = {
        "setup_s": (ready_ns - args.spawn_ns) / 1e9,
        "import_ms": (import_span[3] - import_span[2]) / 1e6,
        "modules": modules,
    }
    if args.mode == "run":
        result.update(timed_loop(ops, args.seconds, spec.WORKLOADS[args.workload][0]))
    elif args.mode == "traced":
        result.update(traced_cycle(ops, tracer))
        spans_path = args.dir / "worker-spans.jsonl"
        write_spans(spans_path, tracer.spans)
        result["spans"] = spans_path.name
        result["counts"] = tracer.counts
    elif args.mode == "rss":
        for op in ops.pool:
            ops.run(op)
        result["ops"] = len(ops.pool)
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
