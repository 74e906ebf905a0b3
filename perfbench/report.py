"""Run the benchmark over workloads and seeds and print every metric with its spread.

    python3 perfbench/report.py                       # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10          # repeated runs, quartile spreads
    python3 perfbench/report.py --trace 1             # per-layer metrics
    python3 perfbench/report.py --workloads flow-sqrt-m --seeds 9001

Run from the repository root.  Each run is its own ``perfbench/run.py``
process, so peak RSS and set-up time are per run.  For every metric the table
gives the median over seeds and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  ``fail_ratio`` is failed
ops over attempted ops, summed over the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7,9001")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seed_list(args.seeds)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(
            f"{workload}: {len(runs)} run(s), {attempted} ops, fail_ratio={failed / attempted:.6g}, "
            f"correct={all(r['correct'] for r in runs)}"
        )
        print(f"  {'metric':34} {'median':>12} {'unit':9} {'spread':>8} {'bound':>6}")
        for m in listed:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            bound = bounds[m["name"]]
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, s / bound)
            print(
                f"  {m['name']:34} {statistics.median(values):12.6g} {m['unit']:9} "
                f"{s:8.4f} {'' if bound is None else bound:>6}"
            )
    if not args.trace:
        print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
