"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py for each workload in BENCHMARK.json, untraced and then
traced, one after another, and prints one table row per metric.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload['name']} trace={trace}: run failed with exit code {done.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload['name']} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_ratio={result['failed'] / result['attempted']:.3f}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
