#!/usr/bin/env python3
"""Run workloads over several seeds, one fresh process per run, and print
each metric's median, quartiles and sample count.

    python3 perfbench/sweep.py --workloads month-pipeline eight-week-route --seeds 1 2 3 4 5

For end-to-end metrics it also prints the spread, the distance between the
first and third quartile as a share of the median, next to the metric's
bound from BENCHMARK.json. With ``--trace 1`` it summarises the per-layer
metrics instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    for line in lines[:-1]:
        if line.startswith(("check ", "known defect", "failed_op_share")):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: correct {results[-1]['correct']}, "
                  f"attempted {results[-1]['attempted']}, failed {results[-1]['failed']}", flush=True)
        print(f"== {workload}: {len(results)} runs")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"{name:24s} median {median:10.6g} {first['unit']:5s} n={len(values)}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"  q1 {q1:.6g}  q3 {q3:.6g}"
                if bounds.get(name) is not None and median:
                    line += f"  spread {(q3 - q1) / median:.3f} (bound {bounds[name]})"
            print(line, flush=True)
            print(f"{'':24s} runs: {' '.join(f'{v:.4g}' for v in values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
