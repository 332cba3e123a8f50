#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload tanks-check --seeds 1-10 [--seconds 25]
                            [--trace 0] [--json FILE]

Runs ``bench/run.py`` once per seed, one after another, from the repository
root. For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median.
With ``--json`` it also writes the summary and every run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="FILE", help="write the summary here")
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *_, detail, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        runs.append({"seed": seed, **result, "detail": json.loads(detail)})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    names = runs[0]["metrics"]
    summary = {
        name: {"unit": runs[0]["metrics"][name]["unit"],
               **summarize([r["metrics"][name]["value"] for r in runs])}
        for name in names
    }
    for name, s in summary.items():
        spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:36s} median {s['median']:.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}")
    if args.json:
        doc = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "all_correct": all(r["correct"] for r in runs), "metrics": summary, "runs": runs}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
