"""Three connected water tanks with a threshold inflow/outflow controller.

Tank 1 feeds tank 2, tank 2 feeds tank 3, through pipes whose flow follows
Torricelli's law on the level difference (signed, so water can flow back).
Tank 1's inflow and tank 3's outflow are stepped up or down by a bang-bang
controller that tries to hold the outer levels at the goal; tank 3 also
receives an uncontrolled stochastic inflow, drawn fresh each step
(scenario 1) or behaving as a clamped random walk (scenario 2).

State variables, in order: levels l1, l2, l3 and flows q1 (controlled
inflow to tank 1), q2 (stochastic inflow to tank 3), q0 (controlled outflow
from tank 3). Levels clamp to the tank range, flows to [0, max flow].
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .spaces import DataSpace, DataState, Interval, Penalty

__all__ = ["TankParams", "TankKernel", "tank_space", "tank_penalties"]


@dataclass(frozen=True)
class TankParams:
    """Physical and control parameters of the plant.

    ``inflow_variance`` is a variance (scenario 1 draws with std equal to
    its square root); ``band`` is the controller dead-band half-width. The
    balance equations apply flows scaled by dt / area per step.
    """

    level_min: float = 0.0
    level_max: float = 20.0
    goal: float = 10.0
    band: float = 0.5
    flow_max: float = 6.0
    flow_step: float = 1.2
    inflow_mean: float = 3.0
    inflow_variance: float = 0.5
    dt: float = 0.1
    area: float = 1.0
    pipe_area: float = 0.5
    loss12: float = 0.75
    loss23: float = 0.75
    gravity: float = 9.81

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not self.level_min < self.goal < self.level_max:
            raise ValueError("need level_min < goal < level_max")
        if self.flow_max <= 0 or not 0 < self.flow_step <= self.flow_max:
            raise ValueError("need 0 < flow_step <= flow_max")
        if self.band < 0 or self.inflow_variance < 0:
            raise ValueError("band and inflow variance must be non-negative")
        if min(self.dt, self.area, self.pipe_area, self.gravity) <= 0:
            raise ValueError("dt, area, pipe_area and gravity must be positive")
        if not (0 < self.loss12 <= 1 and 0 < self.loss23 <= 1):
            raise ValueError("loss coefficients must lie in (0, 1]")
        if not 0 <= self.inflow_mean <= self.flow_max:
            raise ValueError("inflow mean must lie in [0, flow_max]")


def tank_space(params: TankParams) -> DataSpace:
    lev = Interval(params.level_min, params.level_max)
    flow = Interval(0.0, params.flow_max)
    return DataSpace(
        [("l1", lev), ("l2", lev), ("l3", lev), ("q1", flow), ("q2", flow), ("q0", flow)]
    )


class TankKernel:
    """Transition of the plant under scenario 1 or 2, stepped a block at a time."""

    def __init__(self, params: TankParams = TankParams(), scenario: int = 1):
        if scenario not in (1, 2):
            raise ValueError("scenario must be 1 or 2")
        self.params = params
        self.scenario = scenario
        self._space = tank_space(params)
        # flattened coefficients, computed once instead of on every batch
        # step; the pipe coefficients are a column, one row per pipe [12, 23]
        p = params
        self._pipe = np.array([[p.loss12 * p.pipe_area], [p.loss23 * p.pipe_area]])
        self._two_g = 2.0 * p.gravity
        self._scale = p.dt / p.area
        self._lo, self._hi = p.level_min, p.level_max
        self._qmax = p.flow_max
        self._hi_band = p.goal + p.band
        self._lo_band = p.goal - p.band
        # controller step per row [q1, q0] when its level is above the band:
        # the inflow steps down, the outflow up; below the band, the reverse
        self._qstep = np.array([[-p.flow_step], [p.flow_step]])
        self._inflow_std = math.sqrt(p.inflow_variance)

    @property
    def space(self) -> DataSpace:
        return self._space

    def initial_state(self) -> DataState:
        """Plant at rest: every level at the bottom, every flow shut."""
        m = self.params.level_min
        return self._space.state(l1=m, l2=m, l3=m, q1=0.0, q2=0.0, q0=0.0)

    def noise(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """One standard normal draw per step, for the stochastic inflow."""
        rng.standard_normal(out=out)

    def advance(self, values: np.ndarray, noise: np.ndarray, out: np.ndarray) -> None:
        lo, hi, qmax = self._lo, self._hi, self._qmax
        # each step is computed in a contiguous (dim, N) buffer, two in turn, and
        # then copied into the block: the block's (dim, N) step slices are strided
        # for w > 1, and the row-group ufuncs run about 10% slower on them. So
        # ``values`` is read in full before the block is written, as may be
        # needed when it is the block's last state
        scratch = np.empty((2, *values.shape))
        # level differences and pipe flows, rows [12, 23], reused by every step
        d, pipe = np.empty((2, 2, values.shape[1]))
        for i, (z, dst) in enumerate(zip(noise, out.swapaxes(0, 1))):
            nxt = scratch[i % 2]
            levels, flows = values[:3], values[3:]
            q1, q2, q0 = flows

            # signed Torricelli flows through both pipes at once
            np.subtract(levels[:2], levels[1:], out=d)
            np.abs(d, out=pipe)
            pipe *= self._two_g
            np.sqrt(pipe, out=pipe)
            pipe *= self._pipe
            np.copysign(pipe, d, out=pipe)
            q12, q23 = pipe

            # each tank's net inflow, scaled onto its level
            lv = nxt[:3]
            np.subtract(q1, q12, out=nxt[0])
            np.subtract(q12, q23, out=nxt[1])
            np.add(q2, q23, out=nxt[2])
            nxt[2] -= q0
            lv *= self._scale
            lv += levels
            # min(hi, max(lo, x)) in place, keeping Python's choice between
            # equal values, so that signed zeros and NaN come out as a scalar
            # clamp gives them; these masks are mostly false, so they cost little
            np.copyto(lv, lo, where=~(lv > lo))
            np.copyto(lv, hi, where=~(lv < hi))

            # controllers read the pre-update levels l1, l3 and step q1, q0 by
            # sign * step, sign in {-1, 0, +1}: q + (+-1 * qs) is q +- qs exactly,
            # and q + +-0.0 is q but for -0.0, which the flow clamp makes 0.0
            lc, ctl = levels[::2], nxt[3::2]
            np.subtract(lc > self._hi_band, lc < self._lo_band, out=ctl, dtype=np.float64)
            ctl *= self._qstep
            ctl += flows[::2]
            if self.scenario == 1:
                np.multiply(z, self._inflow_std, out=nxt[4])
                nxt[4] += self.params.inflow_mean
            else:
                np.add(q2, z, out=nxt[4])
            # min(qmax, max(0.0, x)) without masks: fmax takes 0.0 for NaN, and
            # adding 0.0 turns the -0.0 it may keep into 0.0, whichever zero
            # numpy's fmax returns for equal zeros
            fl = nxt[3:]
            np.fmax(fl, 0.0, out=fl)
            fl += 0.0
            np.fmin(fl, qmax, out=fl)
            dst[...] = nxt
            values = nxt


def tank_penalties(params: TankParams) -> dict[str, Penalty]:
    """rho1..rho3: normalized distance of each level from the goal;
    over1..over3: how far each level is above the goal, over the room above it.

    A rho penalty scores an empty tank as badly as a full one. An over
    penalty scores every level at or below the goal 0, so it tells a tank
    near overflow from an empty one.
    """
    denom = max(params.level_max - params.goal, params.goal - params.level_min)
    goal, room = params.goal, params.level_max - params.goal

    def rho(rows: np.ndarray, tau: int | np.ndarray) -> np.ndarray:
        return np.abs(rows[0] - goal) / denom

    def over(rows: np.ndarray, tau: int | np.ndarray) -> np.ndarray:
        return np.maximum(rows[0] - goal, 0.0) / room

    return {
        f"{name}{i}": Penalty(f"{name}{i}", (f"l{i}",), fn)
        for name, fn in (("rho", rho), ("over", over))
        for i in (1, 2, 3)
    }
