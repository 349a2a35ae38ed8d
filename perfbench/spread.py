"""Run-to-run spread of the end-to-end metrics, across seeds or on one seed.

  python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--seed N] [--seconds S] [--out FILE]

Runs `run.py --trace 0` once per seed 1..runs on each workload, one at a time,
or with --seed N that one seed `runs` times, and prints for each metric the
median, the quartiles of statistics.quantiles(values, n=4) and the spread
(Q3 - Q1) / median beside the metric's bound in BENCHMARK.json.  Across
seeds the spread holds data variation as well as machine noise; one seed
repeated holds machine noise alone.  A spread at or above a third of the
bound is flagged.  --out writes the summary and every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(workloads.BY_NAME))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=None,
                    help="repeat this seed instead of taking seeds 1..runs")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [args.seed] * args.runs if args.seed is not None else range(1, args.runs + 1)

    summary, status = {}, 0
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                sys.stderr.write(proc.stdout + proc.stderr)
                status = 1
                continue
            runs.append({"seed": seed, **{m: v["value"] for m, v in result["metrics"].items()}})
        if len(runs) < 2:
            continue
        rows = {}
        print(f"{name}: {len(runs)} runs of {seconds:g} s, seeds {sorted({r['seed'] for r in runs})}")
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            rows[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                            "spread": spread, "bound": bound}
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {metric:<22} median {statistics.median(values):>12.6g}  "
                  f"q1 {q1:>12.6g}  q3 {q3:>12.6g}  spread {spread:7.2%}  bound {bound:.0%}{flag}")
        summary[name] = {"metrics": rows, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "seeds": list(seeds), "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
