"""Run one workload on several seeds and summarise each metric.

    python3 bench/seeds.py --workload rank1_cli --seeds 1-10 [--seconds 45] [--trace 0]

For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance between
the quartiles as a share of the median.  The runs go one after another, so
they never compete for the machine.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> List[int]:
    """'1-10' or '3,5,8' -> seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", default="45")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} correct {result['correct']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32s} median {med:12.4f} {units[name]:6s} quartiles {q1:12.4f} {q3:12.4f} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
