"""Run each workload N times and print every end-to-end metric's spread.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload NAME]

For each workload, runs ``run.py --trace 0`` once per seed (``first-seed``
up to ``first-seed + runs - 1``) and prints, per metric, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median against the metric's bound
from ``BENCHMARK.json``.  Also prints the failed share of every run.
Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in names:
        values: dict[str, list[float]] = {}
        failed_shares = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [
                    sys.executable, "perfbench/run.py",
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ],
                cwd=CHECKOUT, capture_output=True, text=True, check=False,
            )
            if done.returncode != 0:
                print(done.stdout + done.stderr)
                print(f"{workload} seed {seed}: exit {done.returncode}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed_shares.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            ), flush=True)
        print(f"\n{workload}: failed shares {sorted(set(failed_shares))}")
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < metric["bound"] / 3 else "  > bound/3"
            print(f"{metric['name']:<18} {median:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.4f} {metric['bound']:>6}{flag}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
