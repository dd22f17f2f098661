"""A/A steadiness check: run the benchmark in two sets on the same code and
compare the sets against the bounds in spec.py.

    python3 perfbench/aa.py --workloads cli-cold cli-map lib-sweeps \
        --seeds 1 2 3 4 5 6 7 8 9 10

Every run measures for spec.RUN_SECONDS, the length comparisons use.  The
two sets run one after the other, as a later comparison of two commits
would; within a set, runs go seed by seed over the workloads.  For each
workload and end-to-end metric it prints both sets' median and quartiles,
the spread (IQR / median) and the difference of set 1's median from set 0's,
each against the metric's bound.  A spread is expected below a third of the
bound and must stay within it; the difference must stay within the bound.
It exits 1 when a figure is outside its bound.  Raw results are kept in the
JSON file named at the end.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import spec
import stats

HERE = Path(__file__).resolve().parent
OUT_ROOT = HERE.parent / ".bench_build" / "perfbench"
SETS = 2


def run_once(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec.RUN_SECONDS), "--trace", "0"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result["failed"]


def summarize(runs):
    """Print the table; return True when every figure is within its bound."""
    ok = True
    for workload in sorted({r["workload"] for r in runs}):
        print(f"\n{workload}")
        for name, (unit, better, bound) in spec.END_TO_END.items():
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name] for r in runs
                          if r["workload"] == workload and r["set"] == s]
                med, q1, q3, spread = stats.spread(values)
                medians.append(med)
                verdict = ("ok" if spread <= bound / 3 else "WITHIN BOUND" if spread <= bound
                           else "TOO WIDE")
                ok &= spread <= bound
                print(f"  {name:13s} set {s}: median {med:12.4f} {unit:8s} q1 {q1:12.4f} "
                      f"q3 {q3:12.4f}  spread {spread:6.3f} (bound {bound}) {verdict}")
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if better == "lower" else -change
            ok &= worse <= bound
            print(f"  {name:13s} set 1 vs set 0: {change:+.3%} "
                  f"({'worse' if worse > 0 else 'better'}; bound {bound:.0%}) "
                  f"{'ok' if worse <= bound else 'WORSE THAN BOUND'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(spec.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    path = OUT_ROOT / f"aa-{time.strftime('%Y%m%d-%H%M%S')}.json"
    runs = []
    for s in range(SETS):
        for seed in args.seeds:
            for workload in args.workloads:
                metrics, failed = run_once(workload, seed)
                runs.append({"workload": workload, "seed": seed, "set": s,
                             "metrics": metrics, "failed": failed})
                print(f"{workload} seed {seed} set {s}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
                      + (f" FAILED={failed}" if failed else ""), flush=True)
                path.write_text(json.dumps({"runs": runs}, indent=1),
                                encoding="utf-8")
    ok = summarize(runs)
    print(f"\nraw results: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
