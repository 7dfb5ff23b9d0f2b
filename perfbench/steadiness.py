"""Repeat runs of the benchmark over several seeds and record their spread.

Usage (from the root of the repository)::

    python3 perfbench/steadiness.py --workload qft16-sz --seeds 1-10 [--write]

Runs ``perfbench/run.py --trace 0`` once per seed, one run at a time, and
prints each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median).  ``--write`` stores the
figures in ``perfbench/STEADINESS.json`` so a later change can tell an
unresolved metric (spread wider than its bound) from an unchanged one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "STEADINESS.json"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]

    record = json.loads(RECORD.read_text()) if RECORD.is_file() else {}
    for workload in args.workload:
        runs = []
        for seed in seeds(args.seeds):
            start = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            if out.returncode:
                raise SystemExit(f"{workload} seed {seed} failed:\n{out.stdout}{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
            calls = next(line for line in out.stdout.splitlines() if line.startswith("run_s:"))
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.1f} s): {calls}", flush=True)
        figures = {name: summary([run[name] for run in runs]) for name in runs[0]}
        for name, entry in figures.items():
            print(f"  {name:<22} median {entry['median']:<14.6g} "
                  f"q1 {entry['q1']:<14.6g} q3 {entry['q3']:<14.6g} spread {entry['spread']:.4f}")
        record[workload] = {"seeds": args.seeds, "seconds": seconds, "metrics": figures}
    if args.write:
        RECORD.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
