"""Run-to-run spread of the end-to-end metrics: runs the benchmark once per
seed and prints, per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload query_mix --seeds 1-10 [--seconds 15]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    for workload in args.workload:
        values: dict[str, list[float]] = {}
        walls, failed = [], 0
        for seed in seeds(args.seeds):
            t0 = time.monotonic()
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            walls.append(time.monotonic() - t0)
            result = json.loads(r.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            rows[m["name"]] = {
                "median": med, "spread": (q3 - q1) / med, "bound": m["bound"],
                "values": v,
            }
        print(json.dumps({"workload": workload, "failed": failed,
                          "run_wall_s": [round(w, 1) for w in walls],
                          "metrics": rows}))


if __name__ == "__main__":
    main()
