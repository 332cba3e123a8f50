"""Peak memory of five commands whose memory must not grow with runs x steps.

Each command runs in a fresh interpreter, which then reads its own peak
resident size (``VmHWM``, Linux only). On a 2-vCPU Linux host (Python
3.11, numpy 2.4) the peaks were 58.4 MB for ``check``, 45.6 for
``estimate`` at 2000 runs and 46.0 at 10000, 39.2 for ``stats`` with a
50000-run reference, 50.1 for a ``stats --sweep`` (120.4 when the sweep
stored its runs) and 51.6 for ``distance``, 13-21% under the bounds. A
``distance`` refused for a million observation times past its steps peaked
at 34.0 MB, against 161.5 MB when the times were expanded first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _has_vmhwm() -> bool:
    try:
        with open("/proc/self/status") as status:
            return any(line.startswith("VmHWM:") for line in status)
    except OSError:
        return False


CHILD = """
import contextlib, io, sys
from evtl.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(code, hwm_kb)
"""


def _peak(argv: list[str]) -> tuple[int, int, str]:
    """Exit code, peak resident kB and stderr of one command in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], cwd=REPO, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    code, hwm_kb = map(int, out.stdout.split())
    return code, hwm_kb, out.stderr


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
@pytest.mark.parametrize(
    "argv, bound_kb",
    [
        # a stored estimate alone would be 116 MB; streaming keeps the peak near 59 MB
        (["check", "--config", "presets/three-tanks-scenario-1.cfg",
          "--formula", "properties/recover-from-overflow-risk.evtl",
          "--runs", "1600", "--ell", "10", "--steps", "150"], 70_000),
        # the file is 29 MB; simulated and written one 1024-run chunk at a time
        (["estimate", "--config", "presets/three-tanks-scenario-1.cfg",
          "--runs", "2000", "--steps", "150", "--out", "{tmp}/estimate.csv"], 58_000),
        # five times the runs at the same peak; the stored runs alone would be 72 MB, and
        # the 146 MB file is thrown away
        (["estimate", "--config", "presets/three-tanks-scenario-1.cfg",
          "--runs", "10000", "--steps", "150", "--out", os.devnull], 58_000),
        # the reference folds one 1024-run block at a time: 39 MB at 2048 and at 50000 runs
        (["stats", "--config", "presets/three-tanks-scenario-2.cfg",
          "--reference-runs", "50000"], 45_000),
        # one 10000-run simulation read once for all five counts; the stored runs peaked at
        # 120 MB
        (["stats", "--config", "presets/three-tanks-scenario-1.cfg", "--sweep",
          "--out", "{tmp}/s.csv"], 58_000),
        # both systems are read a block at a time; two stored estimates peaked at 206 MB
        (["distance", "--config", "presets/three-tanks-scenario-1.cfg",
          "--against", "presets/three-tanks-scenario-2.cfg", "--penalty", "rho3",
          "--runs", "1000", "--ell", "10", "--steps", "150"], 60_000),
    ],
    ids=[
        "check-n1600", "estimate-2000-runs", "estimate-10000-runs", "stats-reference-50000",
        "stats-sweep", "distance-n1000",
    ],
)
def test_peak_memory_stays_bounded(argv, bound_kb, tmp_path):
    code, hwm_kb, err = _peak([arg.format(tmp=tmp_path) for arg in argv])
    assert code == 0, err
    assert hwm_kb <= bound_kb, f"{argv[0]} peaked at {hwm_kb} kB"


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
def test_observation_times_are_bounded_before_they_are_expanded():
    # a million observation times past 5 steps are refused unexpanded; the expanded set
    # peaked at 162 MB
    code, hwm_kb, err = _peak([
        "distance", "--config", "presets/three-tanks-scenario-1.cfg",
        "--against", "presets/three-tanks-scenario-2.cfg", "--penalty", "rho3",
        "--steps", "5", "--set", "obs-times=0-1000000",
    ])
    assert code == 2 and "observation times outside 0..5" in err
    assert hwm_kb <= 45_000, f"distance peaked at {hwm_kb} kB"
