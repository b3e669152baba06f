"""Scalar QOI extraction: pressure-weighted vertical mean, then area-weighted zonal mean.

Reductions are normalized (mean-valued) so QOI magnitudes match the field
magnitudes the activation thresholds are written against.  RegistryEvaluator
folds both means of each spec into one flat weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailureError
from .grid import (
    LevelRange,
    SphericalGrid,
    STRATOSPHERE_RANGE,
    ZONE_ORDER,
    ZoneSpec,
    canonical_zones,
    level_mask,
    zone_weights,
)
from .surrogate import ModelState

FIELD_NAMES = ("SO2", "SUL", "AOD", "T")


@dataclass(frozen=True)
class QoiSpec:
    """One tracked quantity: a field reduced over a zone (and level range if 3D)."""

    id: str
    field: str
    zone: ZoneSpec
    level_range: LevelRange | None

    def __post_init__(self):
        if self.field not in FIELD_NAMES:
            raise ConfigurationError(f"unknown field {self.field!r}")
        if self.field == "AOD" and self.level_range is not None:
            raise ConfigurationError("AOD is 2D; its spec must not carry a level range")
        if self.field != "AOD" and self.level_range is None:
            raise ConfigurationError(f"3D field {self.field} requires a level range")


def _field_of(state: ModelState, name: str) -> np.ndarray:
    if name == "SO2":
        return state.so2
    if name == "SUL":
        return state.so4
    if name == "AOD":
        return state.aod
    return state.temperature


def registry_canonical() -> list[QoiSpec]:
    """The 16 canonical specs: {SO2, SUL, AOD, T} x {e, s, t, p}, field-major."""
    zones = canonical_zones()
    specs = []
    for field in FIELD_NAMES:
        for label in ZONE_ORDER:
            lr = None if field == "AOD" else STRATOSPHERE_RANGE
            specs.append(
                QoiSpec(id=f"{field}({label})", field=field, zone=zones[label], level_range=lr)
            )
    return specs


class RegistryEvaluator:
    """Cached-weight evaluator for a fixed registry on a fixed grid.

    Each spec collapses to a single flat weight vector, so per-step evaluation
    is one dot product per QOI and allocates nothing proportional to the grid.
    """

    def __init__(self, grid: SphericalGrid, specs: list[QoiSpec]):
        self.grid = grid
        self.specs = list(specs)
        self._weights = []
        for spec in self.specs:
            wz = zone_weights(grid, spec.zone)
            total = wz.sum()
            if total == 0.0:
                raise ConfigurationError(f"zone {spec.zone.label!r} is empty for {spec.id}")
            wz = wz / total
            if spec.level_range is None:
                self._weights.append((spec.field, wz.ravel()))
            else:
                mask = level_mask(grid, spec.level_range)
                if not mask.any():
                    raise ConfigurationError(f"empty level range for {spec.id}")
                wk = np.where(mask, grid.dp, 0.0)
                wk = wk / wk[mask].sum()
                w3 = wz[:, :, None] * wk[None, None, :]
                self._weights.append((spec.field, w3.ravel()))

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.specs]

    def evaluate_state(self, state: ModelState) -> np.ndarray:
        """Vector of all QOI values for one state, in registry order."""
        out = np.empty(len(self.specs))
        for i, (field, w) in enumerate(self._weights):
            out[i] = w @ _field_of(state, field).ravel()
        if not np.isfinite(out).all():
            bad = self.specs[int(np.argmax(~np.isfinite(out)))].id
            raise NumericalFailureError(
                f"non-finite QOI value for {bad} at step {state.step_index}",
                step_index=state.step_index,
            )
        return out
