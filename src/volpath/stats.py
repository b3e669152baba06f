"""Baseline ensemble statistics and activation-time summaries.

Per-step mean/variance use the single-pass Welford recurrence with the Chan
parallel-merge formula for combining members processed independently.
Standard deviations and standard errors use the sample (n-1) divisor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError

#: First-activation convention for a QOI that never activates (days).
NEVER_ACTIVE_DAY = 1200.0


class BaselineStats:
    """Streaming per-step mean/std accumulator for one QOI across members.

    Each update() call feeds one member's full per-step series; all steps are
    updated in lockstep, so n is a single member count.
    """

    def __init__(self, qoi_id: str, n_steps: int):
        self.qoi_id = qoi_id
        self.n = 0
        self.mean = np.zeros(n_steps + 1)
        self.m2 = np.zeros(n_steps + 1)

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != self.mean.shape:
            raise ConfigurationError(
                f"{self.qoi_id}: expected series of length {self.mean.size}, got {values.size}"
            )
        if not np.isfinite(values).all():
            raise DataError(f"{self.qoi_id}: non-finite value in baseline update")
        self.n += 1
        delta = values - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (values - self.mean)

    def std(self) -> np.ndarray:
        """Per-step sample standard deviation; requires at least two members."""
        if self.n < 2:
            raise ConfigurationError(
                f"{self.qoi_id}: sample std needs >= 2 members, have {self.n}"
            )
        return np.sqrt(self.m2 / (self.n - 1))

    @classmethod
    def from_arrays(cls, qoi_id: str, n: int, mean: np.ndarray, std: np.ndarray) -> "BaselineStats":
        """Rebuild from serialized mean/std arrays."""
        stats = cls(qoi_id, len(mean) - 1)
        stats.n = n
        stats.mean = np.asarray(mean, dtype=float).copy()
        stats.m2 = np.asarray(std, dtype=float) ** 2 * max(n - 1, 0)
        return stats


def baseline_merge(a: BaselineStats, b: BaselineStats) -> BaselineStats:
    """Combine two accumulators as if their members were processed sequentially."""
    if a.qoi_id != b.qoi_id:
        raise ConfigurationError(f"merging mismatched QOIs {a.qoi_id!r} and {b.qoi_id!r}")
    if a.mean.shape != b.mean.shape:
        raise ConfigurationError(f"{a.qoi_id}: merging mismatched step ranges")
    out = BaselineStats(a.qoi_id, a.mean.size - 1)
    n = a.n + b.n
    out.n = n
    if a.n == 0:
        out.mean = b.mean.copy()
        out.m2 = b.m2.copy()
    elif b.n == 0:
        out.mean = a.mean.copy()
        out.m2 = a.m2.copy()
    else:
        delta = b.mean - a.mean
        out.mean = a.mean + delta * (b.n / n)
        out.m2 = a.m2 + b.m2 + delta**2 * (a.n * b.n / n)
    return out


@dataclass(frozen=True)
class ActivationSummary:
    """Per-member, per-QOI activation timing."""

    qoi_id: str
    member_index: int
    first_active: float  # days; never-active convention value if never active
    total_active: float  # days


@dataclass(frozen=True)
class EnsembleSummary:
    qoi_id: str
    n_members: int
    mean_first: float
    se_first: float
    mean_total: float
    se_total: float


def first_activation(
    taus: np.ndarray, dt: float, never_value: float = NEVER_ACTIVE_DAY
) -> float:
    """Simulation day of the first active step; never_value if none."""
    taus = np.asarray(taus, dtype=bool)
    idx = np.flatnonzero(taus)
    if idx.size == 0:
        return never_value
    return float(idx[0] * dt)


def total_active(taus: np.ndarray, dt: float) -> float:
    """Cumulative days active: dt times the number of active steps."""
    return float(np.count_nonzero(np.asarray(taus, dtype=bool)) * dt)


def ensemble_summarize(summaries: list[ActivationSummary]) -> EnsembleSummary:
    """Means and standard errors of first/total activation across members."""
    if len(summaries) < 2:
        raise ConfigurationError("ensemble summary needs >= 2 members")
    ids = {s.qoi_id for s in summaries}
    if len(ids) != 1:
        raise ConfigurationError(f"mixed QOIs in one summary: {sorted(ids)}")
    firsts = np.array([s.first_active for s in summaries])
    totals = np.array([s.total_active for s in summaries])
    n = len(summaries)
    return EnsembleSummary(
        qoi_id=summaries[0].qoi_id,
        n_members=n,
        mean_first=float(firsts.mean()),
        se_first=float(firsts.std(ddof=1) / np.sqrt(n)),
        mean_total=float(totals.mean()),
        se_total=float(totals.std(ddof=1) / np.sqrt(n)),
    )
