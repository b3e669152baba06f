"""Scalar QOI extraction: pressure-weighted vertical mean, then area-weighted zonal mean.

Reductions are normalized (mean-valued) so QOI magnitudes match the field
magnitudes the activation thresholds are written against.  RegistryEvaluator
folds both means of each spec into one flat weight vector and keeps only the
span of it that holds the spec's nonzero weights.  Specs with the same field, zone
and level range share one span and are evaluated by one np.vecdot call over a
broadcast view of it; each still takes its own BLAS dot product every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailureError
from .grid import (
    LevelRange, SphericalGrid, STRATOSPHERE_RANGE, ZONE_ORDER, level_mask, zone_weights,
)
from .surrogate import ModelState

# The ModelState attribute each field reads, in the registry's field order.
FIELD_ATTRS = {"SO2": "so2", "SUL": "so4", "AOD": "aod", "T": "temperature"}
FIELD_NAMES = tuple(FIELD_ATTRS)

# Weight spans start and end on multiples of this many elements (or at the
# end of the field).  Then every product keeps the accumulator lane it has in
# the full-length BLAS dot product, and the zero weights outside the span
# only ever added exact zeros, so the span product equals the full one bit
# for bit; bounds aligned to 16 elements did not (tests/test_qoi.py checks).
SPAN_ALIGN = 64


@dataclass(frozen=True)
class QoiSpec:
    """One tracked quantity: a field reduced over a canonical zone (and level range if 3D)."""

    id: str
    field: str
    zone: str
    level_range: LevelRange | None

    def __post_init__(self):
        if self.field not in FIELD_NAMES:
            raise ConfigurationError(f"unknown field {self.field!r}")
        if self.zone not in ZONE_ORDER:
            raise ConfigurationError(f"unknown zone {self.zone!r}; the zones are {ZONE_ORDER}")
        if self.field == "AOD" and self.level_range is not None:
            raise ConfigurationError("AOD is 2D; its spec must not carry a level range")
        if self.field != "AOD" and self.level_range is None:
            raise ConfigurationError(f"3D field {self.field} requires a level range")


def registry_canonical() -> list[QoiSpec]:
    """The 16 canonical specs: {SO2, SUL, AOD, T} x {e, s, t, p}, field-major."""
    return [
        QoiSpec(f"{field}({zone})", field, zone, None if field == "AOD" else STRATOSPHERE_RANGE)
        for field in FIELD_NAMES
        for zone in ZONE_ORDER
    ]


def level_share(grid: SphericalGrid, spec: QoiSpec, levels: slice) -> float:
    """The share of spec's level weight that lies in levels: exactly 1 if they hold all its levels."""
    mask = level_mask(grid, spec.level_range)
    inside = np.zeros_like(mask)
    inside[levels] = True
    return grid.dp[mask & inside].sum() / grid.dp[mask].sum()


def _span(w: np.ndarray) -> tuple[slice, np.ndarray]:
    """The part of a flat weight vector from its first to its last nonzero, aligned."""
    nonzero = np.flatnonzero(w)
    lo = nonzero[0] // SPAN_ALIGN * SPAN_ALIGN
    hi = min(-(-(nonzero[-1] + 1) // SPAN_ALIGN) * SPAN_ALIGN, w.size)
    return slice(lo, hi), w[lo:hi].copy()


class RegistryEvaluator:
    """Cached-weight evaluator for a fixed registry on a fixed grid.

    Each spec collapses to a single flat weight vector, cut to the span that
    covers its zone rows and levels, so per-step evaluation is one short dot
    product per QOI and allocates nothing proportional to the grid.  Specs with
    the same field, zone and level range share one span, built once, and one
    np.vecdot call over a stride-0 view of it takes each spec's own BLAS dot.
    """

    def __init__(self, grid: SphericalGrid, specs: list[QoiSpec]):
        self.grid = grid
        self.specs = list(specs)
        reductions = {}
        for i, spec in enumerate(self.specs):
            key = (spec.field, spec.zone, spec.level_range)
            if key not in reductions:
                wz = zone_weights(grid, spec.zone)
                total = wz.sum()
                if total == 0.0:
                    raise ConfigurationError(f"zone {spec.zone!r} is empty for {spec.id}")
                w = wz / total
                if spec.level_range is not None:
                    mask = level_mask(grid, spec.level_range)
                    if not mask.any():
                        raise ConfigurationError(f"empty level range for {spec.id}")
                    wk = np.where(mask, grid.dp, 0.0)
                    wk = wk / wk[mask].sum()
                    w = w[:, :, None] * wk[None, None, :]
                reductions[key] = (FIELD_ATTRS[spec.field], *_span(w.ravel()), [])
            reductions[key][-1].append(i)
        self._reductions = [(attr, span, np.array(rows), np.broadcast_to(w, (len(rows), w.size)))
                            for attr, span, w, rows in reductions.values()]

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.specs]

    def evaluate_state(self, state: ModelState) -> np.ndarray:
        """Vector of all QOI values for one state, in registry order."""
        out = np.empty(len(self.specs))
        for attr, span, rows, w in self._reductions:
            out[rows] = np.vecdot(w, getattr(state, attr).ravel()[span])
        if not np.isfinite(out).all():
            bad = self.specs[int(np.argmax(~np.isfinite(out)))].id
            raise NumericalFailureError(
                f"non-finite QOI value for {bad} at step {state.step_index}",
                step_index=state.step_index,
            )
        return out
