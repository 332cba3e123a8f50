import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evtl.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]
DRIFT = str(REPO / "chains" / "drift.json")
CHAIN = ["--set", "model=chain", "--set", f"chain.file={DRIFT}"]
PRESET = REPO / "presets" / "three-tanks-scenario-1.cfg"
SETTLE = REPO / "properties" / "settle-on-goal.evtl"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, stdout, _ = run(
        capsys, "simulate", *CHAIN, "--steps", "5", "--seed", "3", "--out", str(out)
    )
    assert code == 0 and stdout == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "time,x"
    assert len(lines) == 7
    assert lines[1].startswith("0,")


def test_simulate_run_index_selects_stream(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    run(capsys, "simulate", *CHAIN, "--steps", "30", "--out", str(a))
    run(capsys, "simulate", *CHAIN, "--steps", "30", "--run", "1", "--out", str(b))
    run(capsys, "simulate", *CHAIN, "--steps", "30", "--out", str(c))
    assert a.read_bytes() == c.read_bytes()
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("j", [0, 3])
@pytest.mark.parametrize(
    "model",
    [["--config", str(PRESET)], CHAIN],
    ids=["preset1", "drift"],
)
def test_simulate_run_is_that_run_of_estimate(model, j, capsys):
    _, traj, _ = run(capsys, "simulate", *model, "--steps", "12", "--run", str(j))
    _, est, _ = run(capsys, "estimate", *model, "--steps", "12", "--runs", str(j + 1))
    header, *rows = est.splitlines()
    want = [r.partition(",")[2] for r in rows if r.startswith(f"{j},")]
    assert len(want) == 13
    assert traj.splitlines() == [header.partition(",")[2], *want]


def test_simulate_to_stdout(capsys):
    code, stdout, _ = run(capsys, "simulate", *CHAIN, "--steps", "2")
    assert code == 0
    assert stdout.splitlines()[0] == "time,x"


def test_estimate_rows_are_run_major(tmp_path, capsys):
    out = tmp_path / "est.csv"
    code, _, _ = run(
        capsys, "estimate", *CHAIN, "--steps", "3", "--runs", "4", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "run,time,x"
    assert len(lines) == 1 + 4 * 4
    heads = [tuple(l.split(",")[:2]) for l in lines[1:6]]
    assert heads == [("0", "0"), ("0", "1"), ("0", "2"), ("0", "3"), ("1", "0")]


def test_estimate_prefix_stability(tmp_path, capsys):
    # adding runs extends the file without touching the existing rows
    small, large = tmp_path / "s.csv", tmp_path / "l.csv"
    run(capsys, "estimate", *CHAIN, "--steps", "4", "--runs", "5", "--out", str(small))
    run(capsys, "estimate", *CHAIN, "--steps", "4", "--runs", "9", "--out", str(large))
    small_lines = small.read_text().splitlines()
    assert large.read_text().splitlines()[: len(small_lines)] == small_lines


def test_worker_count_does_not_change_bytes(tmp_path, capsys):
    outs = []
    for w, name in ((1, "w1.csv"), (4, "w4.csv")):
        path = tmp_path / name
        code, _, _ = run(
            capsys,
            "estimate",
            "--config",
            str(REPO / "presets" / "three-tanks-scenario-1.cfg"),
            "--steps",
            "12",
            "--runs",
            "24",
            "--workers",
            str(w),
            "--out",
            str(path),
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_check_reports_verdict(tmp_path, capsys):
    f = tmp_path / "prop.evtl"
    f.write_text("F[0,3] target(point(x=1.0), rho, 0.4)\n")
    series = tmp_path / "series.csv"
    code, stdout, _ = run(
        capsys,
        "check",
        *CHAIN,
        "--formula",
        str(f),
        "--runs",
        "50",
        "--ell",
        "2",
        "--seed",
        "1",
        "--out",
        str(series),
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["horizon"] == 3 and doc["steps"] == 3
    assert doc["runs"] == 50 and doc["ratio"] == 2 and doc["seed"] == 1
    assert doc["until_mode"] == "semantics" and doc["discount"] == "const:1.0"
    assert doc["formula"].startswith("(true U[0,3]")
    assert -1.0 <= doc["robustness"] <= 1.0
    assert doc["satisfied"] in (True, False, None)
    assert doc["reliable_steps"] == 1
    lines = series.read_text().splitlines()
    assert lines[0] == "time,robustness,reliable"
    assert len(lines) == 5


def test_check_below_the_horizon_has_no_verdict(tmp_path, capsys):
    # 3 steps of a 50-step property: index 0 is unreliable, so the verdict is null
    series = tmp_path / "series.csv"
    argv = ("check", "--config", str(PRESET), "--formula", str(SETTLE), "--steps", "3")
    code, stdout, _ = run(capsys, *argv, "--out", str(series))
    doc = json.loads(stdout)
    assert code == 0 and doc["reliable_steps"] == 0 and doc["satisfied"] is None
    assert doc["robustness"] != 0.0
    rows = [line.split(",") for line in series.read_text().splitlines()[1:]]
    assert [r[2] for r in rows] == ["0"] * 4 and float(rows[0][1]) == doc["robustness"]


def test_check_is_deterministic(tmp_path, capsys):
    f = tmp_path / "prop.evtl"
    f.write_text("G[0,4] !hazard(point(x=1.0), rho, 0.6)\n")
    args = ("check", *CHAIN, "--formula", str(f), "--runs", "40", "--ell", "2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_check_honors_steps_and_until_mode(tmp_path, capsys):
    f = tmp_path / "prop.evtl"
    f.write_text("F[0,2] target(point(x=1.0), rho, 0.4)")
    code, stdout, _ = run(
        capsys,
        "check",
        *CHAIN,
        "--set",
        "until-mode=figure",
        "--formula",
        str(f),
        "--steps",
        "8",
        "--runs",
        "30",
        "--ell",
        "2",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["steps"] == 8 and doc["horizon"] == 2
    assert doc["reliable_steps"] == 7 and doc["until_mode"] == "figure"


def test_distance_between_chain_variants(tmp_path, capsys):
    cfg2 = tmp_path / "other.cfg"
    cfg2.write_text(f"model = chain\nchain.file = {REPO / 'chains' / 'drift-fast.json'}\n")
    out = tmp_path / "div.csv"
    args = (
        "distance",
        *CHAIN,
        "--against",
        str(cfg2),
        "--steps",
        "8",
        "--runs",
        "60",
        "--ell",
        "2",
        "--out",
        str(out),
    )
    code, stdout, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["penalty"] == "rho" and doc["runs"] == 60 and doc["ratio"] == 2
    assert 0 <= doc["peak_time"] <= 8
    assert doc["divergence"] > 0.05
    lines = out.read_text().splitlines()
    assert lines[0] == "time,divergence"
    assert len(lines) == 10
    # repeatable bytes on the summary too
    _, again, _ = run(capsys, *args)
    assert again == stdout


def test_distance_rejects_observation_times_past_the_steps(tmp_path, capsys):
    cfg2 = tmp_path / "other.cfg"
    cfg2.write_text(f"model = chain\nchain.file = {REPO / 'chains' / 'drift-fast.json'}\n")
    out = tmp_path / "div.csv"
    code, stdout, err = run(
        capsys, "distance", *CHAIN, "--against", str(cfg2), "--steps", "3", "--runs", "10",
        "--set", "obs-times=0,7", "--out", str(out),
    )
    assert code == 2 and stdout == "" and "observation times outside 0..3" in err
    assert not out.exists()
    # the last step itself is observable
    code, _, _ = run(
        capsys, "distance", *CHAIN, "--against", str(cfg2), "--steps", "3", "--runs", "10",
        "--set", "obs-times=0,3", "--out", str(out),
    )
    assert code == 0 and out.read_text().splitlines()[1:] != []


def test_distance_simulates_only_up_to_the_last_observed_time(tmp_path, capsys, monkeypatch):
    import evtl.cli as cli_mod

    steps = []
    real = cli_mod.Simulation
    monkeypatch.setattr(
        cli_mod, "Simulation", lambda k, x0, n, *rest: steps.append(n) or real(k, x0, n, *rest)
    )
    presets = REPO / "presets"
    args = (
        "distance", "--config", str(presets / "three-tanks-scenario-1.cfg"), "--against",
        str(presets / "three-tanks-scenario-2.cfg"), "--penalty", "rho3", "--runs", "100",
        "--set", "obs-times=0-5",
    )
    outputs = []
    for k in ("1500", "5"):
        out = tmp_path / f"div-{k}.csv"
        code, stdout, _ = run(capsys, *args, "--steps", k, "--out", str(out))
        assert code == 0
        outputs.append((out.read_bytes(), stdout))
    # a run's first states do not depend on its later noise
    assert outputs[0] == outputs[1]
    assert steps == [5, 5, 5, 5]


def test_distance_needs_penalty_choice_for_tanks(tmp_path, capsys):
    cfg = REPO / "presets" / "three-tanks-scenario-1.cfg"
    code, _, err = run(
        capsys, "distance", "--config", str(cfg), "--against", str(cfg), "--steps", "3",
        "--runs", "10", "--ell", "1",
    )
    assert code == 2
    assert "penalty" in err
    code, stdout, _ = run(
        capsys, "distance", "--config", str(cfg), "--against", str(cfg), "--steps", "3",
        "--runs", "10", "--ell", "1", "--penalty", "rho3",
    )
    assert code == 0
    # without --out the divergence CSV shares stdout; the summary is last
    assert json.loads(stdout.splitlines()[-1])["penalty"] == "rho3"


def test_distance_rejects_mismatched_spaces(tmp_path, capsys):
    cfg2 = tmp_path / "tanks.cfg"
    cfg2.write_text("model = three-tanks\n")
    code, _, err = run(
        capsys, "distance", *CHAIN, "--against", str(cfg2), "--steps", "2", "--runs", "4"
    )
    assert code == 2 and "spaces" in err


def test_stats_writes_report(tmp_path, capsys):
    out = tmp_path / "stats.csv"
    code, _, _ = run(
        capsys,
        "stats",
        *CHAIN,
        "--steps",
        "4",
        "--runs",
        "30",
        "--reference-runs",
        "100",
        "--out",
        str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,variable,mean,stddev,stderr,z,within95"
    assert len(lines) == 6
    # time 0 is deterministic, so its z column is blank
    assert lines[1].endswith(",,")


@pytest.mark.parametrize("runs", ["0", "1", "-3"])
def test_stats_rejects_fewer_than_two_reference_runs(runs, tmp_path, capsys):
    out = tmp_path / "stats.csv"
    code, stdout, err = run(
        capsys, "stats", *CHAIN, "--steps", "4", "--runs", "30", "--reference-runs", runs,
        "--out", str(out),
    )
    assert code == 2 and stdout == "" and "--reference-runs must be >= 2" in err
    assert not out.exists()


def test_stats_rejects_a_single_run(tmp_path, capsys):
    out = tmp_path / "stats.csv"
    code, stdout, err = run(
        capsys, "stats", *CHAIN, "--steps", "4", "--runs", "1", "--out", str(out)
    )
    assert code == 2 and stdout == "" and "--runs must be >= 2" in err
    assert not out.exists()


def test_stats_sweep_names_files_by_run_count(tmp_path, capsys, monkeypatch):
    import evtl.cli as cli_mod

    monkeypatch.setattr(cli_mod, "SWEEP_RUNS", (10, 20))
    out = tmp_path / "err.csv"
    code, _, _ = run(capsys, "stats", *CHAIN, "--steps", "3", "--sweep", "--out", str(out))
    assert code == 0
    assert not out.exists()
    assert (tmp_path / "err-n10.csv").exists() and (tmp_path / "err-n20.csv").exists()
    code, _, err = run(capsys, "stats", *CHAIN, "--steps", "3", "--sweep")
    assert code == 2 and "--out" in err


@pytest.mark.parametrize("out", [[], ["--out", "stats.txt"]])
def test_stats_sweep_checks_out_before_the_reference(out, capsys, monkeypatch):
    import evtl.cli as cli_mod

    def no_reference(*args):
        raise AssertionError("the reference was simulated")

    monkeypatch.setattr(cli_mod, "run_moments", no_reference)
    preset = str(REPO / "presets" / "three-tanks-scenario-2.cfg")
    code, stdout, err = run(
        capsys, "stats", "--config", preset, "--reference-runs", "20000", "--sweep", *out
    )
    assert code == 2 and stdout == "" and "--sweep needs --out ending in .csv" in err


def test_stats_sweep_simulates_once(tmp_path, capsys, monkeypatch):
    import evtl.cli as cli_mod
    import evtl.simulation as sim_mod

    # the runs whose noise is drawn, one entry per simulated batch
    runs = []
    real = sim_mod._run_noise
    monkeypatch.setattr(
        sim_mod, "_run_noise", lambda k, p, s, r: runs.append(len(r)) or real(k, p, s, r)
    )
    args = (
        "stats", "--config", str(REPO / "presets" / "three-tanks-scenario-2.cfg"),
        "--steps", "5", "--reference-runs", "300",
    )
    sweep = tmp_path / "sweep.csv"
    assert run(capsys, *args, "--sweep", "--out", str(sweep))[0] == 0
    # the 300-run reference, then one simulation of the largest count for the whole sweep
    assert runs == [300, max(cli_mod.SWEEP_RUNS)] == [300, 10000]
    for n in (100, 500):
        single = tmp_path / f"single-{n}.csv"
        assert run(capsys, *args, "--runs", str(n), "--out", str(single))[0] == 0
        assert (tmp_path / f"sweep-n{n}.csv").read_bytes() == single.read_bytes()


SHARED = {
    "config": "c.cfg",
    "overrides": ["a=1", "b=2"],
    "steps": 3,
    "runs": 4,
    "ell": 5,
    "seed": 6,
    "workers": 7,
    "out": "o.csv",
}
SHARED_ARGV = [
    "--config", "c.cfg", "--set", "a=1", "--set", "b=2", "--steps", "3", "--runs", "4",
    "--ell", "5", "--seed", "6", "--workers", "7", "--out", "o.csv",
]
SUBCOMMANDS = [
    ("simulate", []),
    ("estimate", []),
    ("distance", ["--against", "b.cfg"]),
    ("check", ["--formula", "f.evtl"]),
    ("stats", []),
]


@pytest.mark.parametrize("command, extra", SUBCOMMANDS)
def test_every_subcommand_parses_the_shared_options(command, extra):
    parser = build_parser()
    got = vars(parser.parse_args([command, *SHARED_ARGV, *extra]))
    assert {key: got[key] for key in SHARED} == SHARED
    # the options are shared between subcommands, their defaults are not mutated
    for other, other_extra in SUBCOMMANDS:
        fresh = vars(parser.parse_args([other, *other_extra]))
        assert {key: fresh[key] for key in SHARED} == dict.fromkeys(SHARED) | {"overrides": []}


def test_exit_codes(tmp_path, capsys, monkeypatch):
    # 2: configuration problems
    assert run(capsys, "simulate", *CHAIN)[0] == 2  # no steps
    assert run(capsys, "simulate", "--config", "/no/such.cfg", "--steps", "1")[0] == 2
    assert run(capsys, "simulate", *CHAIN, "--steps", "2", "--set", "bogus=1")[0] == 2
    assert run(capsys, "simulate", "--set", "chain.file=/no/such.json",
               "--set", "model=chain", "--steps", "2")[0] == 2
    # 3: formula problems
    bad = tmp_path / "bad.evtl"
    bad.write_text("target(point(x=1.0), nope, 0.4)")
    assert run(capsys, "check", *CHAIN, "--formula", str(bad))[0] == 3
    ugly = tmp_path / "ugly.evtl"
    ugly.write_text("F[3,1] true")
    assert run(capsys, "check", *CHAIN, "--formula", str(ugly))[0] == 3
    # 4: numeric failures inside the engine
    import evtl.cli as cli_mod

    def overflow(*args):
        raise FloatingPointError("overflow")

    monkeypatch.setattr(cli_mod, "error_report", overflow)
    assert run(capsys, "stats", *CHAIN, "--steps", "2", "--runs", "2")[0] == 4


@pytest.mark.parametrize("setting", ["tanks.dt=nan", "tanks.gravity=inf", "tanks.l_M=-inf"])
def test_non_finite_tank_parameters_exit_2(setting, tmp_path, capsys):
    prop = tmp_path / "prop.evtl"
    prop.write_text("F[0,3] target(normal(l3; 10, 0.25), rho3, 0.2)\n")
    code, stdout, err = run(
        capsys, "check", "--set", setting, "--formula", str(prop), "--runs", "5", "--ell", "1"
    )
    assert code == 2 and stdout == "" and "must be finite" in err


@pytest.mark.parametrize(
    "command, setting",
    [
        ("check", "tanks.gravity=1e308"),
        ("check", "tanks.dt=1e308"),
        ("check", "tanks.pipe_area=1e308"),
        ("check", "tanks.area=1e-320"),
        ("stats", "tanks.l_m=-1e308"),
        ("estimate", "tanks.gravity=1e308"),
    ],
)
def test_overflow_inside_the_engine_exits_4(command, setting, capsys):
    # finite but extreme parameters pass the config checks and overflow in the kernel
    argv = [command, "--config", str(REPO / "presets" / "three-tanks-scenario-1.cfg")]
    if command == "check":
        argv += ["--formula", str(REPO / "properties" / "settle-on-goal.evtl")]
    argv += ["--set", "steps=5", "--set", "runs=4", "--set", "ell=2", "--set", setting]
    code, stdout, err = run(capsys, *argv)
    assert code == 4 and stdout == ""
    assert err.startswith("numeric error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_overflow_in_the_first_estimate_chunk_creates_no_file(tmp_path, capsys):
    out = tmp_path / "estimate.csv"
    code, stdout, err = run(
        capsys, "estimate", "--config", str(REPO / "presets" / "three-tanks-scenario-1.cfg"),
        "--steps", "5", "--runs", "4", "--set", "tanks.gravity=1e308", "--out", str(out),
    )
    assert code == 4 and stdout == "" and err.startswith("numeric error: ")
    assert not out.exists()


def test_discount_with_a_third_field_exits_2(capsys):
    code, stdout, err = run(
        capsys, "check", "--config", str(REPO / "presets" / "three-tanks-scenario-1.cfg"),
        "--formula", str(REPO / "properties" / "settle-on-goal.evtl"), "--steps", "5",
        "--set", "discount=exp:0.9,1,junk",
    )
    assert code == 2 and stdout == ""
    assert "bad discount spec" in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_penalty_reading_a_column_the_empirical_file_lacks_exits_3(tmp_path, capsys, monkeypatch):
    # the file holds l3 and l1; rho2 reads l2, which the reference does not constrain
    prop = tmp_path / "prop.evtl"
    prop.write_text('target(empirical("tests/data/levels-near-goal.csv"), rho2, 0.3)\n')
    argv = ["check", "--config", str(REPO / "presets" / "three-tanks-scenario-1.cfg"),
            "--formula", str(prop), "--steps", "5"]
    monkeypatch.chdir(REPO)
    code, stdout, err = run(capsys, *argv)
    assert code == 3 and stdout == ""
    assert err.startswith("formula error: ") and "does not constrain" in err


def test_unknown_variable_is_placed_at_its_atom_without_quotes(tmp_path, capsys):
    doc = json.loads(Path(DRIFT).read_text())
    chain = tmp_path / "y-chain.json"
    chain.write_text(json.dumps({**doc, "variable": "y"}))
    code, stdout, err = run(
        capsys, "check", "--set", "model=chain", "--set", f"chain.file={chain}",
        "--formula", str(REPO / "tests" / "data" / "until-left-chain.evtl"),
        "--steps", "5", "--runs", "4",
    )
    # line 5 opens with "(!hazard(point(x = 1.0), ...": the atom's keyword is column 3
    assert code == 3 and stdout == ""
    assert err == "formula error: 5:3: unknown variable 'x'; space has y\n"


def test_unconstrained_penalty_is_placed_at_its_atom(tmp_path, capsys):
    prop = tmp_path / "prop.evtl"
    prop.write_text("F[0,3] target(normal(l1; 10, 1), rho2, 0.2)\n")
    code, stdout, err = run(
        capsys, "check", "--config", str(REPO / "presets" / "three-tanks-scenario-1.cfg"),
        "--formula", str(prop), "--steps", "5",
    )
    assert code == 3 and stdout == ""
    assert err == (
        "formula error: 1:8: penalty 'rho2' reads ['l2'] "
        "which the reference distribution does not constrain\n"
    )


def test_negative_run_index_exits_2(capsys):
    code, stdout, err = run(capsys, "simulate", *CHAIN, "--steps", "3", "--run", "-1")
    assert code == 2 and stdout == "" and "--run must be >= 0" in err


@pytest.mark.parametrize("field", ["values", "transition", "initial", "penalty"])
def test_non_finite_chain_file_exits_2(field, tmp_path, capsys):
    doc = json.loads(Path(DRIFT).read_text())
    entry = doc[field]
    # json writes and reads NaN as a bare literal
    (entry[0] if field == "transition" else entry)[0] = math.nan
    bad = tmp_path / "nan-chain.json"
    bad.write_text(json.dumps(doc))
    prop = tmp_path / "prop.evtl"
    prop.write_text("F[0,3] target(point(x=0.0), rho, 0.2)\n")
    code, stdout, err = run(
        capsys, "check", "--set", "model=chain", "--set", f"chain.file={bad}",
        "--formula", str(prop), "--steps", "5", "--runs", "5", "--ell", "1",
    )
    assert code == 2 and stdout == "" and f"chain {field} must be finite" in err


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_chain_with_several_initial_states_exits_2(command, tmp_path, capsys):
    doc = json.loads(Path(DRIFT).read_text())
    doc["initial"] = [0.4, 0.0, 0.6]
    chain = tmp_path / "spread.json"
    chain.write_text(json.dumps(doc))
    prop = tmp_path / "prop.evtl"
    prop.write_text("target(point(x=0.0), rho, 0.5)\n")
    extra = ["--formula", str(prop)] if command == "check" else []
    code, stdout, err = run(
        capsys, command, "--set", "model=chain", "--set", f"chain.file={chain}",
        "--steps", "0", *extra,
    )
    assert code == 2 and stdout == "" and "starts from one" in err


def _drift_with(**changes):
    return json.dumps({**json.loads(Path(DRIFT).read_text()), **changes})


@pytest.mark.parametrize(
    "kind, text, want",
    [
        ("chain", "[1, 2]", 2),
        ("chain", '"x"', 2),
        ("chain", _drift_with(values=5), 2),
        ("chain", _drift_with(values=[[0.0], [0.5], [1.0]]), 2),
        ("chain", _drift_with(penalty={"a": 1}), 2),
        ("chain", _drift_with(variable=["x"]), 2),
        ("chain", _drift_with(variable=3), 2),
        ("chain", _drift_with(penalty_name=7), 2),
        ("chain", _drift_with(transition=[[0.6, 0.4], [1.0]]), 2),
        ("chain", _drift_with(values=[0, 1, 10**400]), 2),
        ("config", b"model = chain\n# caf\xe9\n", 2),
        ("formula", b"# caf\xe9\ntrue\n", 3),
    ],
    ids=[
        "chain-array", "chain-string", "values-number", "values-nested", "penalty-object",
        "variable-array", "variable-number", "penalty-name-number", "transition-ragged",
        "values-huge-int",
        "config-latin1", "formula-latin1",
    ],
)
def test_malformed_input_files_exit_without_traceback(kind, text, want, tmp_path, capsys):
    path = tmp_path / f"bad-{kind}"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    prop = tmp_path / "prop.evtl"
    prop.write_text("target(point(x=0.0), rho, 0.5)\n")
    files = {"chain": ["--set", f"chain.file={path}"], "config": ["--config", str(path)]}
    argv = ["check", "--set", "model=chain", "--set", f"chain.file={DRIFT}"]
    argv += files.get(kind, [])
    argv += ["--formula", str(path if kind == "formula" else prop), "--steps", "2"]
    code, stdout, err = run(capsys, *argv)
    assert code == want and stdout == "" and "Traceback" not in err


@pytest.mark.parametrize(
    "kind, text, code",
    [
        ("config", PRESET.read_bytes(), 0),
        ("config", b"seed = 1\nnot a setting\n", 2),
        ("formula", SETTLE.read_bytes(), 0),
        ("formula", b"true &&\n  @\n", 3),
        ("formula", b"# caf\xe9\ntrue\n", 3),
        ("chain", Path(DRIFT).read_bytes(), 0),
        ("chain", b'{"variable": "x",\n "values": [0, }', 2),
        ("samples", (REPO / "tests" / "data" / "levels-near-goal.csv").read_bytes(), 0),
        ("samples", b"l3,l1\n10.5,9.5\n10.5,abc\n", 3),
    ],
    ids=[
        "config", "config-bad-line", "formula", "formula-bad-character", "formula-latin1",
        "chain", "chain-bad-json", "samples", "samples-bad-value",
    ],
)
def test_input_files_read_the_same_after_a_utf8_bom(kind, text, code, tmp_path, capsys):
    # an error's position counts from the first character after the BOM
    path = tmp_path / "input"
    prop = tmp_path / "prop.evtl"
    prop.write_text(f'F[0,2] target(empirical("{path}"), rho3, 0.3)\n')
    common = ["--steps", "3", "--runs", "4", "--ell", "1"]
    argv = {
        "config": ["check", "--config", str(path), "--formula", str(SETTLE)],
        "formula": ["check", "--config", str(PRESET), "--formula", str(path)],
        "chain": ["simulate", "--set", "model=chain", "--set", f"chain.file={path}"],
        "samples": ["check", "--config", str(PRESET), "--formula", str(prop)],
    }[kind] + common
    results = []
    for data in (text, b"\xef\xbb\xbf" + text):
        path.write_bytes(data)
        results.append(run(capsys, *argv))
    assert results[0] == results[1] and results[0][0] == code


def test_ragged_chain_file_names_the_file_and_field(tmp_path, capsys):
    chain = tmp_path / "ragged.json"
    chain.write_text(_drift_with(transition=[[0.6, 0.4], [1.0]]))
    code, stdout, err = run(
        capsys, "simulate", "--set", "model=chain", "--set", f"chain.file={chain}", "--steps", "2"
    )
    assert code == 2 and stdout == ""
    assert f"{chain}: chain transition rows must have equal lengths" in err


@pytest.mark.parametrize(
    "dist", ["normal(x; 0.5, 1e999)", "normal(x; 1e999, 0.1)", "point(x = 1e999)"]
)
def test_overflowing_distribution_literal_exits_3(dist, tmp_path, capsys):
    prop = tmp_path / "prop.evtl"
    prop.write_text(f"F[0,3] target({dist}, rho, 0.4)\n")
    code, stdout, err = run(
        capsys, "check", *CHAIN, "--formula", str(prop), "--runs", "10", "--ell", "1"
    )
    assert code == 3 and stdout == "" and "must be finite" in err


@pytest.mark.parametrize(
    "value, want", [("abc", "could not convert"), ("nan", "finite"), ("inf", "finite")]
)
def test_bad_sample_value_names_its_line(value, want, tmp_path, capsys):
    csv = tmp_path / "ref.csv"
    csv.write_text(f"x\n0.25\n{value}\n0.75\n")
    prop = tmp_path / "prop.evtl"
    prop.write_text(f'F[0,3] target(empirical("{csv}"), rho, 0.4)\n')
    code, stdout, err = run(
        capsys, "check", *CHAIN, "--formula", str(prop), "--runs", "10", "--ell", "1"
    )
    assert code == 3 and stdout == ""
    assert f"{csv}:3: " in err and want in err


@pytest.mark.parametrize("kind", ["bad-cell", "missing"])
def test_sample_file_error_names_its_path_once(kind, tmp_path, capsys):
    csv = tmp_path / "ref.csv"
    if kind == "bad-cell":
        csv.write_text("x\n0.25\nabc\n0.75\n")
    prop = tmp_path / "prop.evtl"
    prop.write_text(f'F[0,3] target(empirical("{csv}"), rho, 0.4)\n')
    code, stdout, err = run(
        capsys, "check", *CHAIN, "--formula", str(prop), "--runs", "10", "--ell", "1"
    )
    assert code == 3 and stdout == "" and err.count(str(csv)) == 1
    want = f"{csv}:3: could not convert" if kind == "bad-cell" else f"cannot load {str(csv)!r}: "
    assert want in err


def test_non_utf8_sample_byte_names_its_line_past_the_first_8k(tmp_path, capsys):
    # a text-mode read decodes 8192 bytes at a time and places a bad byte inside
    # its chunk; this one is at file offset 15004, on line 3002
    csv = tmp_path / "ref.csv"
    csv.write_bytes(b"x\n" + b"0.25\n" * 3000 + b"0.\xe95\n0.75\n")
    prop = tmp_path / "prop.evtl"
    prop.write_text(f'F[0,3] target(empirical("{csv}"), rho, 0.4)\n')
    code, stdout, err = run(
        capsys, "check", *CHAIN, "--formula", str(prop), "--runs", "10", "--ell", "1"
    )
    assert code == 3 and stdout == "" and err.count("\n") == 1
    assert f"{csv}:3002: " in err and "byte 0xe9 in position 15004" in err


def test_chain_json_error_names_the_file_and_position(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    chain.write_text('{"variable": "x",\n "values": [0, }')
    code, stdout, err = run(
        capsys, "simulate", "--set", "model=chain", "--set", f"chain.file={chain}", "--steps", "2"
    )
    assert (code, stdout, err) == (2, "", f"error: {chain}:2:16: Expecting value\n")


PAD = b"# pad\n" * 2000


@pytest.mark.parametrize(
    "kind, data, code",
    [
        ("config", PRESET.read_bytes() + PAD + b"# caf\xe9\n", 2),
        ("formula", PAD + b"# caf\xe9\n" + SETTLE.read_bytes(), 3),
        ("chain", b" " * 9000 + Path(DRIFT).read_bytes().replace(b'"rho"', b'"rh\xe9"'), 2),
        ("samples", b"l3\n" + b"10.25\n" * 2000 + b"10.\xe95\n", 3),
    ],
    ids=["config", "formula", "chain", "samples"],
)
def test_a_bad_byte_past_the_first_8k_is_named_by_its_line(kind, data, code, tmp_path, capsys):
    # each reader decodes the whole file at once, so the line is the bad byte's own
    path = tmp_path / "input"
    path.write_bytes(data)
    prop = tmp_path / "prop.evtl"
    prop.write_text(f'F[0,2] target(empirical("{path}"), rho3, 0.3)\n')
    argv = {
        "config": ["check", "--config", str(path), "--formula", str(SETTLE)],
        "formula": ["check", "--config", str(PRESET), "--formula", str(path)],
        "chain": ["simulate", "--set", "model=chain", "--set", f"chain.file={path}"],
        "samples": ["check", "--config", str(PRESET), "--formula", str(prop)],
    }[kind] + ["--steps", "3", "--runs", "4", "--ell", "1"]
    line = data[: data.index(b"\xe9")].count(b"\n") + 1
    # a formula error puts its line and column first
    where = f"{line}:6: {path} " if kind == "formula" else f"{path}:{line}: "
    got, stdout, err = run(capsys, *argv)
    assert (got, stdout, err.count("\n")) == (code, "", 1)
    assert err.count(where) == 1 and "byte 0xe9" in err


# 2**47 float64 values are 1 PiB, more than a 47-bit user address space holds,
# so the allocation fails at once and no memory is touched
_PIB = str(2**47)


@pytest.mark.parametrize(
    "formula, argv",
    [
        # check's steps default to the formula horizon
        (f"F[0,{_PIB}] true", ["check", "--runs", "1", "--ell", "1"]),
        ("F[0,3] true", ["check", "--steps", _PIB]),
        (None, ["estimate", "--steps", _PIB, "--runs", "1"]),
        (None, ["distance", "--config", str(REPO / "presets" / "three-tanks-scenario-1.cfg"),
                "--against", str(REPO / "presets" / "three-tanks-scenario-2.cfg"),
                "--penalty", "rho3", "--steps", _PIB, "--runs", "1"]),
    ],
    ids=["check-horizon", "check-steps", "estimate-steps", "distance-steps"],
)
def test_running_out_of_memory_exits_4(formula, argv, tmp_path, capsys):
    if formula is not None:
        prop = tmp_path / "prop.evtl"
        prop.write_text(formula + "\n")
        argv = [*argv, "--formula", str(prop)]
    code, stdout, err = run(capsys, *argv)
    assert code == 4 and stdout == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_formula_path_that_cannot_be_opened_exits_2(kind, tmp_path, capsys):
    # exit 3 is for formula text, including text that is not UTF-8; a path is read as a config is
    path = tmp_path / "no-such.evtl" if kind == "missing" else tmp_path
    code, stdout, err = run(capsys, "check", *CHAIN, "--steps", "2", "--formula", str(path))
    assert code == 2 and stdout == "" and err.startswith("error:")


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_config_path_that_cannot_be_read_is_named_once(kind, tmp_path, capsys):
    path = str(tmp_path / "no-such.cfg" if kind == "missing" else tmp_path)
    code, stdout, err = run(capsys, "simulate", "--config", path, "--steps", "2")
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: cannot read config {path!r}: ") and err.count(path) == 1


def test_exit_code_messages_go_to_stderr(capsys):
    code, stdout, err = run(capsys, "simulate", *CHAIN)
    assert code == 2 and stdout == "" and err.startswith("error:")


def test_readme_quick_start_prints_its_json(capsys, monkeypatch):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    command = section.split("```\n", 2)[1].split("\n```", 1)[0]
    argv = command.replace("\\\n", " ").split()
    assert argv[0] == "evtl"
    want = json.loads(section.split("```json\n", 1)[1].split("\n```", 1)[0])
    monkeypatch.chdir(REPO)
    code, stdout, _ = run(capsys, *argv[1:])
    assert code == 0
    assert json.loads(stdout) == want
    assert want["robustness"] == -0.30745644003836287


def test_readme_library_use_prints_the_quick_start_robustness(capsys, monkeypatch):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    quick = readme.split("## Quick start", 1)[1]
    want = json.loads(quick.split("```json\n", 1)[1].split("\n```", 1)[0])
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    # the check by hand, then the penalty example, which continues it
    blocks = [part.split("\n```", 1)[0] for part in section.split("```python\n")[1:]]
    assert len(blocks) == 2
    monkeypatch.chdir(REPO)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    check, projection, settle = capsys.readouterr().out.splitlines()
    value, satisfied = check.split()
    assert float(value) == want["robustness"] and satisfied == str(want["satisfied"])
    assert projection == f"({want['steps'] + 1}, {want['runs'] * want['ratio']}) True True"
    assert -1.0 <= float(settle) <= 1.0


def test_importing_the_cli_loads_no_numpy_random():
    # numpy 2 loads numpy.random lazily; a module-level use of it would add
    # its import time and memory to every command, simulate or not
    code = (
        "import sys, numpy; before = 'numpy.random' in sys.modules; import evtl.cli; "
        "print(before, 'numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    before, after = out.stdout.split()
    assert after == before, out.stderr


SETUPS = [
    (f"presets/{preset}.cfg", f"properties/{prop}.evtl")
    for preset in ("three-tanks-scenario-1", "three-tanks-scenario-2")
    for prop in ("settle-on-goal", "recover-from-overflow-risk")
] + [(None, "tests/data/until-left-chain.evtl")]


@pytest.mark.parametrize("config, formula", SETUPS)
def test_command_setup_loads_no_numpy_random(config, formula, tmp_path):
    # what a command does before it simulates: import, config, model, formula
    if config is None:
        config = tmp_path / "chain.cfg"
        config.write_text(f"model = chain\nchain.file = {DRIFT}\n")
    # numpy 1.x loads numpy.random with numpy itself, so compare against that
    code = (
        "import sys, numpy; before = 'numpy.random' in sys.modules\n"
        "import evtl.cli\n"
        "from evtl.config import build_model, load_config\n"
        "from evtl.parsing import load_formula\n"
        "kernel, _, penalties = build_model(load_config(sys.argv[1]))\n"
        "load_formula(sys.argv[2], penalties, kernel.space)\n"
        "print(before, 'numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code, str(config), formula],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    before, after = out.stdout.split()
    assert after == before, out.stderr


@pytest.mark.parametrize(
    "text",
    ["(" * 300 + "true" + ")" * 300, "!" * 1000 + "true", " || ".join(["true"] * 1000)],
    ids=["parentheses", "negations", "disjuncts"],
)
def test_too_deeply_nested_formula_is_a_formula_error(text, tmp_path):
    formula = tmp_path / "deep.evtl"
    formula.write_text(text)
    argv = ["check", *CHAIN, "--formula", str(formula), "--runs", "2", "--ell", "1"]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "evtl.cli", *argv], env=env, capture_output=True, text=True
    )
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("formula error: 1:") and "Traceback" not in out.stderr
    assert "formula nested too deeply" in out.stderr


@pytest.mark.parametrize(
    "text",
    ["(" * 164 + "true" + ")" * 164, "!" * 164 + "true", " || ".join(["true"] * 164)],
    ids=["parentheses", "negations", "disjuncts"],
)
def test_formula_nested_164_deep_still_checks(text, tmp_path, capsys):
    formula = tmp_path / "deep.evtl"
    formula.write_text(text)
    code, stdout, _ = run(capsys, "check", *CHAIN, "--formula", str(formula), "--runs", "2", "--ell", "1")
    assert code == 0 and json.loads(stdout)["robustness"] in (1.0, -1.0)
