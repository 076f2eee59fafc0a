#!/usr/bin/env python3
"""Check that the benchmark is steady.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs every named workload (default: all of BENCHMARK.json) once per seed
through perfbench/run.py with --trace 0, then prints for every end-to-end
metric its median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound. A spread above a third of the bound is flagged. Exits non-zero if a
run fails or is not correct.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed\n{proc.stderr}")
                return 1
            out = json.loads(lines[-1])
            ok &= out["correct"] and out["failed"] == 0
            for name, metric in out["metrics"].items():
                values[name].append(metric["value"])
            print(f"  seed {seed}: " + " ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in out["metrics"].items()), flush=True)
        print(f"{workload} ({args.runs} seeds from {args.first_seed}): spread")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            flag = "" if spread <= m["bound"] / 3 else "  > bound/3"
            print(f"  {m['name']:18s} median {med:12.6g} {m['unit']:6s}"
                  f" spread {spread:6.3f}  bound {m['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
