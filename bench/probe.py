#!/usr/bin/env python3
"""Fresh-process probes for the benchmark harness (``bench/run.py``).

    python3 bench/probe.py setup CONFIG [FORMULA]
        time to import evtl.cli, load the config, build the model and parse
        the formula, measured from before the first evtl import
    python3 bench/probe.py run CLI-ARGS...
        run ``evtl.cli.main`` once and report its stdout and the peak
        resident memory of this process and of its largest waited-for child

Both print one JSON line. Run from the repository root. ``setup`` also
times :func:`calibrate` in the same process, so that its figure can be
scaled by the machine's speed at that moment.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work evtl does.

    Interpreted float arithmetic with scalar numpy draws (as in the kernel
    steps and the until loop), ``%.17g`` formatting (as in the CSV writers)
    and an array sort (as in the projections). The work never changes, so
    the time measures only how fast the machine runs right now.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(20220427))
    t0 = time.perf_counter()
    level, best = 0.0, -1.0
    for _ in range(24000):
        z = float(rng.standard_normal())
        level = min(20.0, max(0.0, level + math.copysign(math.sqrt(abs(z)), z) * 0.1))
        best = max(best, min(level, z))
    ",".join("%.17g" % v for v in rng.random(24000))
    np.sort(rng.random(200000))
    return time.perf_counter() - t0


def setup(config: str, formula: str | None = None) -> dict:
    t0 = time.perf_counter()
    import evtl.cli  # noqa: F401  (the import is part of what a user waits for)
    from evtl.config import build_model, load_config
    from evtl.parsing import load_formula

    kernel, _, penalties = build_model(load_config(config))
    if formula is not None:
        load_formula(formula, penalties, kernel.space)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "calibration_s": min(calibrate(), calibrate())}


def call_cli(argv: list[str]) -> tuple[str, str | None]:
    """Run ``evtl.cli.main`` in this process: its stdout and failure, if any."""
    import evtl.cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = evtl.cli.main(argv)
    except SystemExit as exc:
        return buf.getvalue(), f"exit code {exc.code}"
    except Exception as exc:
        return buf.getvalue(), f"exception {exc!r}"
    return buf.getvalue(), None if rc == 0 else f"exit code {rc}"


def run(argv: list[str]) -> dict:
    stdout, error = call_cli(argv)
    return {
        "error": error,
        "stdout": stdout,
        "self_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if argv[:1] == ["setup"] and len(argv) in (2, 3):
        print(json.dumps(setup(*argv[1:])))
    elif argv[:1] == ["run"]:
        print(json.dumps(run(argv[1:])))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
