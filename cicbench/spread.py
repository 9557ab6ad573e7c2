#!/usr/bin/env python3
"""Run-to-run spread of the cicbench end-to-end metrics.

Runs one workload once per seed and prints, per metric, the median, the
quartiles and the interquartile distance as a share of the median -- the
steadiness test a benchmark change must pass (every spread below its bound).

    python3 cicbench/spread.py --workload campaign-bus --seeds 1-5 --seconds 50 [--json OUT]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="append the per-seed values and stats to this file")
    args = parser.parse_args()

    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()), flush=True)

    stats = {}
    print(f"{'metric':<32} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        q1, q2, q3 = benchstats.quartiles(vals)
        stats[name] = {"q1": q1, "median": q2, "q3": q3, "spread": benchstats.spread(vals)}
        print(f"{name:<32} {q1:>12.5g} {q2:>12.5g} {q3:>12.5g} {stats[name]['spread']:>8.3f}")
    if args.json:
        with open(args.json, "a") as out:
            out.write(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                  "values": values, "stats": stats}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
