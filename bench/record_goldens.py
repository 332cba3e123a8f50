#!/usr/bin/env python3
"""Record the golden sha256 of every workload's main output.

    python3 bench/record_goldens.py [--seeds 0-31,42]

Run from the repository root at the commit whose outputs define correct.
Each output must first pass the invariants of ``bench/run.py``. Writes
``bench/goldens.json``: per workload, the sizes the hashes hold for and one
hash per seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run as bench
from spread import parse_seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31,42")
    args = parser.parse_args(argv)
    os.chdir(bench.ROOT)
    bench.import_program()
    bench.WORK.mkdir(parents=True, exist_ok=True)
    goldens = {}
    for w in bench.WORKLOADS.values():
        hashes = {}
        for seed in parse_seeds(args.seeds):
            ops = bench.Ops()
            _, reason = bench.run_call(w, seed, ops, {})
            if reason is not None:
                print(f"{w.name} seed {seed}: {reason}", file=sys.stderr)
                return 1
            hashes[str(seed)] = bench.sha256_file(bench.WORK / f"{w.name}.out")
            print(f"{w.name} seed {seed}: {hashes[str(seed)]}", file=sys.stderr)
        goldens[w.name] = {"size": w.size(), "sha256": hashes}
    bench.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
