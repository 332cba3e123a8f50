"""Every config key set to every value of a hostile palette, through the CLI.

Each call runs a small problem (5 steps, 4 runs, ratio 2) and then sets one
key to one palette value. Whatever the value, a command either succeeds or
exits 2, 3 or 4 with one line on stderr: never a traceback, a numpy warning,
or a robustness outside [-1, 1].
"""

import json
import math
from pathlib import Path

import pytest

from evtl.cli import main

REPO = Path(__file__).resolve().parents[1]
PRESET = str(REPO / "presets" / "three-tanks-scenario-1.cfg")

COMMANDS = {
    "check": ["--formula", str(REPO / "properties" / "recover-from-overflow-risk.evtl")],
    "stats": [],
    # a tank system has several penalties, so distance needs one named
    "distance": ["--against", str(REPO / "presets" / "three-tanks-scenario-2.cfg"),
                 "--set", "penalty=rho3"],
}
TANK_KEYS = ["l_m", "l_M", "l_g", "delta_l", "q_M", "q_s", "q_av", "delta_q", "dt",
             "area", "pipe_area", "loss12", "loss23", "gravity"]
KEYS = ["model", "scenario", "steps", "runs", "ell", "seed", "workers", "until-mode",
        "discount", "penalty", "obs-times", "chain.file", *(f"tanks.{k}" for k in TANK_KEYS)]
# no integer between 51 and 2**62: as a size it could allocate gigabytes
# before failing, where 2**70 fails before any allocation
PALETTE = ["nan", "inf", "-inf", "1e308", "-1e308", "-0", "", str(2**70), "-1", "1.5",
           "0x10", "1e-320"]
# what stderr starts with, by exit code
PREFIXES = {2: ("error: ",), 3: ("formula error: ",), 4: ("numeric error: ", "error: out of memory: ")}


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_any_config_value_fails_cleanly_or_checks_in_range(command, key, capsys):
    bad = []
    for value in PALETTE:
        # --set, not the shortcut flags, which would override the fuzzed value
        argv = [command, "--config", PRESET, "--set", "steps=5", "--set", "runs=4",
                "--set", "ell=2", *COMMANDS[command], "--set", f"{key}={value}"]
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 0:
            ok = err == ""
            if ok and command == "check":
                robustness = json.loads(out)["robustness"]
                ok = math.isfinite(robustness) and -1.0 <= robustness <= 1.0
        else:
            ok = (
                code in PREFIXES
                and err.startswith(PREFIXES[code])
                and err.count("\n") == 1
                and "Traceback" not in err
            )
        if not ok:
            bad.append((value, code, err, out[-200:]))
    assert bad == []
