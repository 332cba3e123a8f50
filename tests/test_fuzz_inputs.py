"""Every config key set to every value of a hostile palette, through the CLI,
and every field of a chain file mutated the same way.

Each call runs a small problem (5 steps, 4 runs, ratio 2) and then sets one
key to one palette value, or checks a mutated copy of ``chains/drift.json``.
Whatever the value, a command either succeeds or exits 2, 3 or 4 with one
line on stderr: never a traceback, a numpy warning, or a robustness outside
[-1, 1]. The mutations are a fixed list, so every run tries the same ones.
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


def failed_badly(command: str, code: int, out: str, err: str) -> bool:
    """Whether a call broke the contract: a clean success or one prefixed error line."""
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
    return not ok


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
        if failed_badly(command, code, out, err):
            bad.append((value, code, err, out[-200:]))
    assert bad == []


DRIFT = json.loads((REPO / "chains" / "drift.json").read_text(encoding="utf-8"))
CHAIN_FIELDS = ["variable", "values", "transition", "initial", "penalty", "penalty_name"]
# JSON values of every type, and numbers no chain should take
JSON_PALETTE = [None, True, 0, -1, 1.5, float("nan"), float("inf"), "", "x", "0.5", [], [[]],
                {}, {"x": 1}, [0.0], [1.0, 0.0], [[1.0]], [[[0.6]]], ["0.0", "0.5", "1.0"],
                [0.0, 0.5, None], [1e308, -1e308, 0.0], [0.0, 0.0, 1.0], [-0.5, 0.5, 1.0],
                [0.6, 0.3, 0.1], [float("nan"), 0.5, 0.5], 10**400]


def one_state() -> dict:
    return {**DRIFT, "values": [0.0], "transition": [[1.0]], "initial": [1.0], "penalty": [0.0]}


def shape_mutants() -> list[dict]:
    """drift.json with ragged, empty, nested or stringly rows, and 1-state chains."""
    rows = DRIFT["transition"]
    mutants = [
        {**DRIFT, "transition": [rows[0], rows[1][:2], rows[2]]},
        {**DRIFT, "transition": [rows[0], rows[1], rows[2] + [0.0]]},
        {**DRIFT, "transition": [[], [], []]},
        {**DRIFT, "transition": [[[x] for x in row] for row in rows]},
        {**DRIFT, "transition": [[str(x) for x in rows[0]], rows[1], rows[2]]},
        {**DRIFT, "transition": [rows[0], rows[1]]},
        {**DRIFT, "transition": rows + [rows[0]]},
        {**DRIFT, "transition": [rows[0], None, rows[2]]},
        {**DRIFT, "transition": [row[::-1] for row in rows]},
        {**DRIFT, "initial": [0.5, 0.5, 0.0]},
        {**DRIFT, "initial": [0.0, 0.0, 0.0]},
        {**DRIFT, "values": [0.0, 0.5, 0.5]},
        {**DRIFT, "values": [1.0, 0.0, 0.5]},
        {**DRIFT, "penalty": [0.0, 0.5, 1.5]},
        one_state(),
        {**one_state(), "values": [1.0]},
        {**one_state(), "transition": [1.0]},
        {**one_state(), "transition": [[0.5]]},
        {**one_state(), "initial": [0.0]},
        {**one_state(), "transition": [[]]},
        {**one_state(), "values": []},
        {"variable": "x", "values": [], "transition": [], "initial": [], "penalty": []},
        [DRIFT],
        "drift",
        None,
    ]
    # every field dropped in turn
    mutants += [{k: v for k, v in DRIFT.items() if k != drop} for drop in CHAIN_FIELDS]
    return mutants


@pytest.mark.parametrize("field", [*CHAIN_FIELDS, "shape"])
def test_any_chain_file_fails_cleanly_or_checks_in_range(field, tmp_path, capsys):
    if field == "shape":
        mutants = shape_mutants()
    else:
        mutants = [{**DRIFT, field: value} for value in JSON_PALETTE]
    bad = []
    for i, doc in enumerate(mutants):
        path = tmp_path / f"chain-{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["check", "--set", "model=chain", "--set", f"chain.file={path}",
                "--formula", str(REPO / "tests" / "data" / "until-left-chain.evtl"),
                "--steps", "5", "--runs", "4", "--ell", "2"]
        code = main(argv)
        out, err = capsys.readouterr()
        if failed_badly("check", code, out, err):
            bad.append((doc, code, err, out[-200:]))
    assert bad == []
