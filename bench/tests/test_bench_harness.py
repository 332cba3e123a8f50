"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/tests -q

Each workload runs once, untraced and traced, and must report every named
metric with its unit. A corrupted output must be counted as a failed
operation, whether the check is a golden hash or the invariants.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run as bench  # noqa: E402

TINY = {
    "tanks-check": dict(steps=20, runs=4, ell=2),
    "chain-long-horizon": dict(steps=40, runs=3, ell=2),
    "tanks-reference-stats": dict(steps=10, runs=4, reference_runs=8),
    "tanks-estimate-csv": dict(steps=10, runs=3),
}


@pytest.fixture(scope="module", autouse=True)
def program():
    bench.import_program()


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(bench.ROOT)


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], **TINY[name])


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace):
    result, detail = bench.run_workload(tiny(name), 7, 0.0, trace, {})
    expected = dict(bench.PER_LAYER if trace else bench.END_TO_END)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["check"] == "invariants"
    if trace:
        assert detail["absent_names"] == []
        m = {k: v["value"] for k, v in result["metrics"].items()}
        spans = sum(m[f"{layer}_s"] for layer in bench.LAYERS)
        assert spans + m["cli.self_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert m["simulation.run_steps"] == tiny(name).run_steps


def test_traced_run_reports_a_missing_name_as_absent(monkeypatch):
    import evtl.monitor

    monkeypatch.delattr(evtl.monitor, "until_combine")
    tracer = bench.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["evtl.monitor.until_combine"]


def _corrupt_row0(monkeypatch):
    """Make the CLI's series writer put an out-of-range value in row 0."""
    import evtl.cli

    real = evtl.cli.save_series

    def corrupt(dest, series):
        real(dest, series)
        lines = Path(dest).read_text().splitlines()
        lines[1] = "0,1.5,1"
        Path(dest).write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(evtl.cli, "save_series", corrupt)


def test_corrupted_output_fails_the_invariants(monkeypatch):
    _corrupt_row0(monkeypatch)
    result, detail = bench.run_workload(tiny("tanks-check"), 7, 0.0, False, {})
    # the fresh-process call is not patched; every in-process call is
    assert result["failed"] == result["attempted"] - 1 >= 1
    assert not result["correct"]
    assert detail["failures"]


def test_output_left_by_an_earlier_call_fails(monkeypatch):
    import evtl.cli

    w = tiny("tanks-check")
    bench.WORK.mkdir(parents=True, exist_ok=True)
    bench.run_call(w, 7, bench.Ops(), {})
    monkeypatch.setattr(evtl.cli, "save_series", lambda dest, series: None)
    ops = bench.Ops()
    _, reason = bench.run_call(w, 7, ops, {})
    assert ops.failed == 1 and reason == "no output written"


def test_output_differing_from_golden_fails():
    w = tiny("tanks-estimate-csv")
    goldens = {w.name: {"size": w.size(), "sha256": {"7": "0" * 64}}}
    result, detail = bench.run_workload(w, 7, 0.0, False, goldens)
    assert detail["check"] == "golden"
    assert result["failed"] == result["attempted"] >= 2
    assert "golden" in detail["failures"][0]


def test_golden_matches_its_own_output():
    w = tiny("tanks-estimate-csv")
    bench.WORK.mkdir(parents=True, exist_ok=True)
    ops = bench.Ops()
    bench.run_call(w, 7, ops, {})
    digest = bench.sha256_file(bench.WORK / f"{w.name}.out")
    goldens = {w.name: {"size": w.size(), "sha256": {"7": digest}}}
    result, detail = bench.run_workload(w, 7, 0.0, False, goldens)
    assert detail["check"] == "golden" and result["correct"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_leaves_no_child_process(monkeypatch, capsys, trace):
    name = "tanks-reference-stats"
    monkeypatch.setitem(bench.WORKLOADS, name, tiny(name))
    args = ["--workload", name, "--seed", "7", "--seconds", "0", "--trace", trace]
    assert bench.main(args) == 0
    assert '"correct": true' in capsys.readouterr().out.splitlines()[-1]
    # no child is left, not even one that has ended and not been waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
