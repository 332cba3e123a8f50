"""Every config key set to every value of a hostile palette, through the CLI,
every field of a chain file mutated the same way, and formula files with
tokens inserted, deleted and swapped.

Each call runs a small problem (5 steps, 4 runs, ratio 2) and then sets one
key to one palette value, or checks a mutated copy of ``chains/drift.json``.
Whatever the value, a command either succeeds or exits 2, 3 or 4 with one
line on stderr: never a traceback, a numpy warning, or a robustness outside
[-1, 1]. Every call writes to an ``--out`` file, and a file that is written
must be a CSV of constant width with finite or blank numeric cells. The
mutations are a fixed list, or drawn by a derandomized hypothesis, so every
run tries the same ones.
"""

import csv
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


# CSV columns that hold names, not numbers
TEXT_COLUMNS = {"variable"}


def finite_or_blank(cell: str) -> bool:
    try:
        return cell == "" or math.isfinite(float(cell))
    except ValueError:
        return False


def bad_csv(path: Path) -> bool:
    """Whether ``path`` exists and is not a constant-width CSV of finite or blank cells."""
    if not path.exists():
        return False
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    path.unlink()
    return any(
        len(row) != len(header)
        or not all(finite_or_blank(c) for name, c in zip(header, row) if name not in TEXT_COLUMNS)
        for row in rows
    )


def failed_badly(command: str, code: int, out: str, err: str, written: Path) -> bool:
    """Whether a call broke the contract: a clean success or one prefixed error line, and
    a readable ``--out`` file if one was written."""
    if bad_csv(written):
        return True
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
def test_any_config_value_fails_cleanly_or_checks_in_range(command, key, tmp_path, capsys):
    bad = []
    for value in PALETTE:
        # --set, not the shortcut flags, which would override the fuzzed value
        argv = [command, "--config", PRESET, "--set", "steps=5", "--set", "runs=4",
                "--set", "ell=2", *COMMANDS[command], "--set", f"{key}={value}",
                "--out", str(tmp_path / "out.csv")]
        code = main(argv)
        out, err = capsys.readouterr()
        if failed_badly(command, code, out, err, tmp_path / "out.csv"):
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
                "--steps", "5", "--runs", "4", "--ell", "2", "--out", str(tmp_path / "out.csv")]
        code = main(argv)
        out, err = capsys.readouterr()
        if failed_badly("check", code, out, err, tmp_path / "out.csv"):
            bad.append((doc, code, err, out[-200:]))
    assert bad == []


# formula files and the model each one is written for
CHAIN_MODEL = ["--set", "model=chain", "--set", f"chain.file={REPO / 'chains' / 'drift.json'}"]
FORMULAS = {
    **{p: ["--config", PRESET] for p in sorted((REPO / "properties").glob("*.evtl"))},
    REPO / "tests" / "data" / "until-left-chain.evtl": CHAIN_MODEL,
}
# a token, a comment or a run of whitespace; a mutation moves only tokens
PIECE = re.compile(
    r"""\s+|#[^\n]*|\|\||&&|->|"[^"\n]*"|-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|\w+|."""
)
# tokens to insert besides a file's own: every keyword and operator, and hostile literals
INSERTS = ["(", ")", "[", "]", ",", ";", "=", "!", "&&", "||", "->", "U", "F", "G", "true",
           "target", "hazard", "normal", "point", "empirical", '"missing.csv"', "x", "l1", "rho",
           "-1", "0", "0.5", "2", "1e400", "nan", str(2**70), "%", "\u00e9"]


@st.composite
def token_mutants(draw):
    """A formula file with one to three token insertions, deletions or swaps."""
    path = draw(st.sampled_from(sorted(FORMULAS)))
    pieces = PIECE.findall(path.read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        tokens = [i for i, p in enumerate(pieces) if p and not (p.isspace() or p[0] == "#")]
        kind = draw(st.sampled_from(["insert", "delete", "swap"]))
        i = draw(st.sampled_from(tokens))
        if kind == "insert":
            new = draw(st.sampled_from(INSERTS + [pieces[t] for t in tokens]))
            pieces[i:i] = [new, " "]
        elif kind == "delete":
            pieces[i] = ""
        else:
            j = draw(st.sampled_from(tokens))
            pieces[i], pieces[j] = pieces[j], pieces[i]
    return path, "".join(pieces)


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutant=token_mutants())
def test_any_formula_token_mutation_fails_cleanly_or_checks_in_range(mutant, tmp_path, capsys):
    path, text = mutant
    prop = tmp_path / "mutant.evtl"
    prop.write_text(text, encoding="utf-8")
    written = tmp_path / "out.csv"
    argv = ["check", *FORMULAS[path], "--formula", str(prop),
            "--steps", "30", "--runs", "5", "--ell", "1", "--out", str(written)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert not failed_badly("check", code, out, err, written), (text, code, err, out[-200:])
