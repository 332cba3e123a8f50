"""Flat key/value run configuration.

Config files are lines of ``key = value`` with ``#`` comments. Dotted keys
group parameters: ``tanks.*`` feeds the tank plant, ``chain.file`` points at
a chain description. Example::

    model = three-tanks
    scenario = 2
    steps = 150
    runs = 100
    ell = 10
    seed = 42
    tanks.l_M = 20
    tanks.delta_q = 0.5

Tank keys accept both the short physical names (l_m, l_M, l_g, delta_l,
q_M, q_s, q_av, delta_q, dt) and the descriptive field names of
:class:`evtl.tanks.TankParams`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

from .formulas import Discount
from .spaces import DataState, Penalty
from .simulation import MarkovKernel
from .tanks import TankKernel, TankParams, initial_state, tank_penalties
from .wasserstein import _observation_times

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "build_model"]


class ConfigError(ValueError):
    """Bad configuration key, value, or combination."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs besides the formula itself."""

    model: str = "three-tanks"
    scenario: int = 1
    steps: int | None = None
    runs: int = 100
    ratio: int = 10
    seed: int = 0
    until_mode: str = "semantics"
    discount: Discount = field(default_factory=Discount)
    penalty: str | None = None
    times: tuple[int, ...] | None = None
    chain_file: str | None = None
    tanks: TankParams = field(default_factory=TankParams)

    def require_steps(self) -> int:
        if self.steps is None:
            raise ConfigError("this command needs 'steps' (set it in the config or via --steps)")
        return self.steps


_TANK_ALIASES = {
    "l_m": "level_min",
    "l_M": "level_max",
    "l_g": "goal",
    "delta_l": "band",
    "q_M": "flow_max",
    "q_s": "flow_step",
    "q_av": "inflow_mean",
    "delta_q": "inflow_variance",
    "dt": "dt",
}
_TANK_FIELDS = {f.name for f in dataclasses.fields(TankParams)}


def _parse_times(text: str) -> tuple[int, ...]:
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part[1:].partition("-")  # a leading '-' is a sign
        if sep:
            lo, hi = int(part[0] + lo), int(hi)
            if hi < lo:
                raise ConfigError(f"bad time range {part!r}")
            out.update(range(lo, hi + 1))
        else:
            out.add(int(part))
    return _observation_times(out, None)


def _positive_int(key: str, value: str, minimum: int = 1) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
    if n < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}")
    return n


def apply_setting(cfg: RunConfig, key: str, value: str) -> RunConfig:
    """One ``key = value`` assignment applied to a config."""
    key = key.strip()
    value = value.strip()
    try:
        if key == "model":
            if value not in ("three-tanks", "chain"):
                raise ConfigError(f"model: unknown model {value!r}")
            return replace(cfg, model=value)
        if key == "scenario":
            n = _positive_int(key, value)
            if n not in (1, 2):
                raise ConfigError("scenario: must be 1 or 2")
            return replace(cfg, scenario=n)
        if key == "steps":
            return replace(cfg, steps=_positive_int(key, value, minimum=0))
        if key == "runs":
            return replace(cfg, runs=_positive_int(key, value))
        if key == "ell":
            return replace(cfg, ratio=_positive_int(key, value))
        if key == "seed":
            return replace(cfg, seed=_positive_int(key, value, minimum=0))
        if key == "workers":
            # accepted for compatibility with older configs; simulation is
            # one batched array path, so the worker count changes nothing
            _positive_int(key, value)
            return cfg
        if key == "until-mode":
            if value not in ("semantics", "figure"):
                raise ConfigError("until-mode: must be 'semantics' or 'figure'")
            return replace(cfg, until_mode=value)
        if key == "discount":
            return replace(cfg, discount=Discount.parse(value))
        if key == "penalty":
            return replace(cfg, penalty=value)
        if key == "obs-times":
            return replace(cfg, times=_parse_times(value))
        if key == "chain.file":
            return replace(cfg, chain_file=value)
        if key.startswith("tanks."):
            raw = key[len("tanks.") :]
            name = _TANK_ALIASES.get(raw, raw)
            if name not in _TANK_FIELDS:
                raise ConfigError(f"unknown tank parameter {raw!r}")
            try:
                num = float(value)
            except ValueError:
                raise ConfigError(f"{key}: expected a number, got {value!r}") from None
            return replace(cfg, tanks=replace(cfg.tanks, **{name: num}))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    raise ConfigError(f"unknown configuration key {key!r}")


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        try:
            cfg = apply_setting(cfg, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return cfg


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    try:
        return parse_config(text, base)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_model(cfg: RunConfig) -> tuple[MarkovKernel, DataState, dict[str, Penalty]]:
    """Kernel, initial state and penalty registry for a config."""
    if cfg.model == "three-tanks":
        try:
            kernel = TankKernel(cfg.tanks, cfg.scenario)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return kernel, initial_state(cfg.tanks, kernel.space), tank_penalties(cfg.tanks)
    if cfg.model == "chain":
        if cfg.chain_file is None:
            raise ConfigError("model 'chain' needs chain.file")
        from .chains import ChainKernel, load_chain

        try:
            chain = load_chain(cfg.chain_file)
            initial = chain.initial_state()
        except OSError as exc:
            raise ConfigError(f"cannot read chain file: {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return ChainKernel(chain), initial, {chain.penalty.name: chain.penalty}
    raise ConfigError(f"unknown model {cfg.model!r}")
