"""Sampling-error statistics for evolution estimates.

Quantifies how trustworthy the per-step means of an estimate are: sample
standard deviations, standard errors of the mean, and (against a reference
mean from a much larger run) z-scores with the usual 95% normality check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .simulation import EvolutionEstimate, Simulation, _block_width

__all__ = ["SWEEP_RUNS", "ErrorReport", "error_report", "error_reports", "save_error_report"]

# run counts used for convergence sweeps
SWEEP_RUNS = (100, 500, 1000, 5000, 10000)

_Z95 = 1.96


@dataclass(frozen=True)
class ErrorReport:
    """Per-step, per-variable moment statistics of an estimate.

    All arrays are (steps+1, dim). ``z`` and ``within95`` are NaN where no
    reference mean was given or the spread is numerically zero (identical
    samples can leave a ~1e-16 rounding residue in the two-pass standard
    deviation, which would turn into huge spurious z-scores).
    """

    names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    stderr: np.ndarray
    z: np.ndarray

    @property
    def steps(self) -> int:
        return self.mean.shape[0] - 1

    @property
    def within95(self) -> np.ndarray:
        """1.0 where |z| <= 1.96, 0.0 where it is not, NaN where z is NaN."""
        return np.where(np.abs(self.z) <= _Z95, 1.0, np.where(np.isnan(self.z), np.nan, 0.0))

    def fraction_within(self, variable: str | None = None) -> float:
        """Fraction of defined z-scores within the 95% band."""
        w = self.within95
        if variable is not None:
            w = w[:, self.names.index(variable)]
        defined = w[~np.isnan(w)]
        if defined.size == 0:
            raise ValueError("no defined z-scores")
        return float(defined.mean())


def error_report(
    source: EvolutionEstimate | Simulation, reference_mean: np.ndarray | None = None
) -> ErrorReport:
    """Moment statistics of a source's runs, optionally scored against a reference.

    The reference is a (steps+1, dim) array of means from an independent, much larger run;
    z-scores measure how many standard errors each mean sits from it.
    """
    return error_reports(source, (source.runs,), reference_mean)[0]


def error_reports(
    source: EvolutionEstimate | Simulation, counts: tuple[int, ...], reference_mean=None
) -> list[ErrorReport]:
    """The :func:`error_report` of the first n runs for each n in ``counts``, from one read."""
    if not 2 <= min(counts) <= max(counts) <= source.runs:
        raise ValueError(f"run counts {counts} outside 2..{source.runs}")
    width, dim = _block_width(source.runs), source.space.dim
    mean, std = np.empty((2, len(counts), source.steps + 1, dim))
    buf = np.empty(min(width, source.steps + 1) * max(counts) * dim)
    for t0, block in source.blocks(width):
        w = block.shape[1]
        for i, n in enumerate(counts):
            b = buf[: w * n * dim].reshape(w, n, dim)  # the stored layout sets numpy's sum order
            b[...] = block[:, :, :n].transpose(1, 2, 0)
            mean[i, t0 : t0 + w], std[i, t0 : t0 + w] = b.mean(axis=1), b.std(axis=1, ddof=1)
    stderr = std / np.sqrt(counts)[:, None, None]
    z = np.full_like(mean, np.nan)
    if reference_mean is not None:
        ref = np.asarray(reference_mean, dtype=np.float64)
        if ref.shape != mean.shape[1:]:
            raise ValueError(f"reference shape {ref.shape} != {mean.shape[1:]}")
        ok = std > np.abs(mean) * 1e-12
        z[ok] = (mean - ref)[ok] / stderr[ok]
    return [ErrorReport(source.space.names, *moments) for moments in zip(mean, std, stderr, z)]


def save_error_report(dest, report: ErrorReport) -> None:
    """CSV rows ordered by (time, variable); z columns blank where undefined."""
    k, dim = report.mean.shape
    # the three moments as one 2-D column; z and within95 blank where they are NaN
    moments = np.stack([report.mean, report.std, report.stderr], axis=-1).reshape(-1, 3)
    times, names = np.repeat(np.arange(k), dim), np.tile(report.names, k)
    columns = (times, names, moments, report.z.ravel(), report.within95.ravel())
    header = ("time", "variable", "mean", "stddev", "stderr", "z", "within95")
    write_csv(dest, header, ("%d", "%s", "%.17g", "%.17g?", "%d?"), [columns])
