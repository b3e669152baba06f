"""Baseline ensemble statistics and activation-time summaries.

Per-step mean/variance use the single-pass Welford recurrence.  Standard
deviations and standard errors use the sample (n-1) divisor.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataError


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
    def from_arrays(cls, qoi_id: str, n: int, mean, m2) -> "BaselineStats":
        """Rebuild exactly from serialized arrays: the member count, per-step mean and m2."""
        stats = cls(qoi_id, len(mean) - 1)
        stats.n = n
        stats.mean = np.array(mean, dtype=float)
        stats.m2 = np.array(m2, dtype=float)
        return stats


def first_activation(taus: np.ndarray, dt: float, never_value: float):
    """Day of the first active step along axis 0 (per column of a matrix); never_value if none."""
    taus = np.asarray(taus, dtype=bool)
    return np.where(taus.any(axis=0), taus.argmax(axis=0) * dt, never_value)[()]


def total_active(taus: np.ndarray, dt: float):
    """Days active along axis 0: dt times the number of active steps."""
    return np.count_nonzero(np.asarray(taus, dtype=bool), axis=0) * dt


def ensemble_summarize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard error (sample std / sqrt(B)) of (B, r) member values."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise ConfigurationError("ensemble summary needs >= 2 members")
    # a contiguous (r, B) copy reduces each column in the same order as a 1-D
    # array of its B values; an axis-0 reduction sums in another order once B >= 9
    columns = np.ascontiguousarray(values.T)
    return columns.mean(axis=1), columns.std(axis=1, ddof=1) / np.sqrt(n)
