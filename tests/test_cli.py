import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evtl.cli import main

REPO = Path(__file__).resolve().parents[1]
DRIFT = str(REPO / "chains" / "drift.json")
CHAIN = ["--set", "model=chain", "--set", f"chain.file={DRIFT}"]


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


def test_exit_codes(tmp_path, capsys):
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
    # 4: numeric failures
    assert run(capsys, "stats", *CHAIN, "--steps", "2", "--runs", "1")[0] == 4


@pytest.mark.parametrize("setting", ["tanks.dt=nan", "tanks.gravity=inf", "tanks.l_M=-inf"])
def test_non_finite_tank_parameters_exit_2(setting, tmp_path, capsys):
    prop = tmp_path / "prop.evtl"
    prop.write_text("F[0,3] target(normal(l3; 10, 0.25), rho3, 0.2)\n")
    code, stdout, err = run(
        capsys, "check", "--set", setting, "--formula", str(prop), "--runs", "5", "--ell", "1"
    )
    assert code == 2 and stdout == "" and "must be finite" in err


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
