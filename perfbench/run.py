"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload build-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` runs the workload twice in the same process, untraced and
then traced (each for half of ``--seconds``), and prints the per-layer
metrics of the traced half plus the tracing overhead; the per-layer table
goes to standard output above the result, and the span log to
``.perfbench/traces/`` under the checkout.

Run from the root of a source checkout: the program is imported from
``src/``.  Scratch files live under ``.perfbench/work-<pid>`` and are
removed on every exit path.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(CHECKOUT / "src"))

import host  # noqa: E402
import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "build-batch": workloads.measure_build_batch,
    "serve-remote": workloads.measure_serve_remote,
}


def _on_sigterm(_signum, _frame):
    raise KeyboardInterrupt


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    measure = WORKLOADS[workload]
    if not trace:
        measured = measure(seed, seconds, work, workloads.SETUPS[workload])
        return measured, dict(measured.metrics)
    untraced = measure(seed, seconds / 2, work, 1)
    bench = tracing.Tracer("bench")
    tracing.install(bench)
    try:
        traced = measure(seed, seconds / 2, work, 1)
    finally:
        bench.uninstall()
    records = bench.records()
    for path in traced.span_files:
        records += tracing.read_records(str(path))
    out_dir = CHECKOUT / ".perfbench" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracing.write_records(out_dir / f"{workload}-seed{seed}.jsonl", records)
    metrics, table = layers.per_layer(records, traced, untraced)
    print(table)
    traced.facts["untraced_qps"] = untraced.metrics["qps"]
    traced.facts["traced_qps"] = traced.metrics["qps"]
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to run: {CHECKOUT / 'src' / 'repro'} is missing")

    signal.signal(signal.SIGTERM, _on_sigterm)
    work = CHECKOUT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    facts = host.facts()
    try:
        measured, metrics = run(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts.update(measured.facts)
    print("host and inputs: " + json.dumps(facts, sort_keys=True))
    units = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in units[section]}
    if set(declared) != set(metrics):
        raise SystemExit(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json "
            f"{section} {sorted(declared)}"
        )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": measured.attempted,
                "failed": measured.failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
