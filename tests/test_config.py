from pathlib import Path

import pytest

from evtl.chains import ChainKernel
from evtl.config import ConfigError, RunConfig, build_model, load_config, parse_config
from evtl.formulas import Discount
from evtl.tanks import TankKernel

REPO = Path(__file__).resolve().parents[1]


def test_defaults():
    cfg = RunConfig()
    assert cfg.model == "three-tanks" and cfg.scenario == 1
    assert cfg.runs == 100 and cfg.ratio == 10 and cfg.seed == 0
    assert cfg.until_mode == "semantics"
    assert cfg.discount == Discount()
    with pytest.raises(ConfigError):
        cfg.require_steps()


def test_parse_basic_settings():
    cfg = parse_config(
        """
        # a comment
        model = three-tanks
        scenario = 2     # trailing comment
        steps = 150
        runs = 250
        ell = 4
        seed = 7
        workers = 3
        until-mode = figure
        discount = exp:0.9
        penalty = rho3
        """
    )
    assert cfg.scenario == 2 and cfg.steps == 150
    assert cfg.runs == 250 and cfg.ratio == 4 and cfg.seed == 7
    assert cfg.until_mode == "figure"
    assert cfg.discount == Discount.exponential(0.9)
    assert cfg.penalty == "rho3"


def test_tank_aliases_and_field_names():
    cfg = parse_config(
        """
        tanks.l_M = 30
        tanks.l_g = 12
        tanks.delta_q = 0.25
        tanks.q_av = 2.5
        tanks.pipe_area = 0.4
        """
    )
    t = cfg.tanks
    assert t.level_max == 30.0 and t.goal == 12.0
    assert t.inflow_variance == 0.25 and t.inflow_mean == 2.5 and t.pipe_area == 0.4


def test_observation_times_parse():
    cfg = parse_config("obs-times = 0, 5, 10-12, 3")
    assert cfg.times == (0, 3, 5, 10, 11, 12)
    with pytest.raises(ConfigError):
        parse_config("obs-times = 9-3")
    with pytest.raises(ConfigError):
        parse_config("obs-times = ,")
    # a leading '-' is a sign: the negative time is named, not split as a range
    for text in ("-1", "-1-3", "2, -1"):
        with pytest.raises(ConfigError, match="negative observation time -1$"):
            parse_config(f"obs-times = {text}")


def test_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("steps = 10\n\nbogus-key = 1")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("steps ten")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("steps = 10\nscenario = 5")
    with pytest.raises(ConfigError):
        parse_config("tanks.q_zzz = 1")
    with pytest.raises(ConfigError):
        parse_config("runs = -4")
    with pytest.raises(ConfigError):
        parse_config("discount = linear:2")


def test_workers_key_is_validated_and_changes_nothing():
    # kept for older configs and command lines; simulation is one batched path
    assert parse_config("workers = 3") == RunConfig()
    with pytest.raises(ConfigError):
        parse_config("workers = 0")


def test_later_settings_override_earlier():
    cfg = parse_config("runs = 10\nruns = 20")
    assert cfg.runs == 20
    # and layering configs keeps the base's other fields
    layered = parse_config("seed = 9", base=parse_config("runs = 30"))
    assert layered.runs == 30 and layered.seed == 9


def test_load_config_wraps_path_in_errors(tmp_path):
    with pytest.raises(ConfigError, match="no-such.cfg"):
        load_config(str(tmp_path / "no-such.cfg"))
    p = tmp_path / "bad.cfg"
    p.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError, match="bad.cfg"):
        load_config(str(p))


def test_build_tank_model():
    kernel, start, pens = build_model(parse_config("model = three-tanks\nscenario = 2"))
    assert isinstance(kernel, TankKernel) and kernel.scenario == 2
    assert start.values[:3] == (0.0, 0.0, 0.0)
    assert set(pens) == {"rho1", "rho2", "rho3", "over1", "over2", "over3"}
    # inconsistent physical parameters surface as config errors
    with pytest.raises(ConfigError):
        build_model(parse_config("tanks.l_g = 25"))


def test_build_chain_model():
    cfg = parse_config(f"model = chain\nchain.file = {REPO / 'chains' / 'drift.json'}")
    kernel, start, pens = build_model(cfg)
    assert isinstance(kernel, ChainKernel)
    assert start.values == (0.0,)
    assert list(pens) == ["rho"]
    with pytest.raises(ConfigError, match="chain.file"):
        build_model(parse_config("model = chain"))
    with pytest.raises(ConfigError):
        build_model(parse_config("model = chain\nchain.file = /no/such.json"))


def test_shipped_presets_parse():
    for name, scenario in (("three-tanks-scenario-1", 1), ("three-tanks-scenario-2", 2)):
        cfg = load_config(str(REPO / "presets" / f"{name}.cfg"))
        assert cfg.model == "three-tanks"
        assert cfg.scenario == scenario
        assert cfg.steps == 150 and cfg.runs == 100 and cfg.ratio == 10 and cfg.seed == 42
        build_model(cfg)
