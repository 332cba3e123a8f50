"""Sampling-error statistics for evolution estimates.

Quantifies how trustworthy the per-step means of an estimate are: sample
standard deviations, standard errors of the mean, and (against a reference
mean from a much larger run) z-scores with the usual 95% normality check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .simulation import EvolutionEstimate

__all__ = ["SWEEP_RUNS", "ErrorReport", "error_report", "save_error_report"]

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
    runs: int
    mean: np.ndarray
    std: np.ndarray
    stderr: np.ndarray
    z: np.ndarray
    reference_mean: np.ndarray | None

    @property
    def steps(self) -> int:
        return self.mean.shape[0] - 1

    @property
    def within95(self) -> np.ndarray:
        """1.0 where |z| <= 1.96, 0.0 where it is not, NaN where z is NaN."""
        out = np.where(np.abs(self.z) <= _Z95, 1.0, 0.0)
        out[np.isnan(self.z)] = np.nan
        return out

    def fraction_within(self, variable: str | None = None) -> float:
        """Fraction of defined z-scores within the 95% band."""
        w = self.within95
        if variable is not None:
            w = w[:, self.names.index(variable)]
        defined = w[~np.isnan(w)]
        if defined.size == 0:
            raise ValueError("no defined z-scores")
        return float(defined.mean())

    def column(self, variable: str, what: str = "mean") -> np.ndarray:
        return getattr(self, what)[:, self.names.index(variable)]


def error_report(
    est: EvolutionEstimate,
    reference_mean: np.ndarray | None = None,
) -> ErrorReport:
    """Moment statistics of an estimate, optionally scored against a reference.

    The reference is a (steps+1, dim) array of means from an independent,
    much larger run; z-scores measure how many standard errors each mean
    sits from it.
    """
    n = est.runs
    if n < 2:
        raise ValueError("need at least two runs")
    mean = est.values.mean(axis=1)
    std = est.values.std(axis=1, ddof=1)
    stderr = std / np.sqrt(n)
    z = np.full_like(mean, np.nan)
    if reference_mean is not None:
        ref = np.asarray(reference_mean, dtype=np.float64)
        if ref.shape != mean.shape:
            raise ValueError(f"reference shape {ref.shape} != {mean.shape}")
        ok = std > np.abs(mean) * 1e-12
        z[ok] = (mean[ok] - ref[ok]) / stderr[ok]
    return ErrorReport(est.space.names, n, mean, std, stderr, z, reference_mean)


def save_error_report(dest, report: ErrorReport) -> None:
    """CSV rows ordered by (time, variable); z columns blank where undefined."""
    k, dim = report.mean.shape
    # blank z and within95 where they are NaN (v != v)
    ztxt = ["" if v != v else "%.17g" % v for v in report.z.ravel().tolist()]
    wtxt = ["" if v != v else "%d" % v for v in report.within95.ravel().tolist()]
    moments = (a.ravel() for a in (report.mean, report.std, report.stderr))
    columns = (np.repeat(np.arange(k), dim), np.tile(report.names, k), *moments, ztxt, wtxt)
    header = ("time", "variable", "mean", "stddev", "stderr", "z", "within95")
    write_csv(dest, header, "%d,%s,%.17g,%.17g,%.17g,%s,%s", [columns])
