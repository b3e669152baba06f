"""Regular latitude-longitude-pressure grid with zone and level masks.

All QOI reductions only need per-cell area weights and per-level pressure
thicknesses, so the grid is a uniform lat-lon box stack rather than any
fancier mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Canonical latitudinal bands (degrees), contiguous from south to north up to the
# pole, as zone_of_rows needs: equatorial, subtropical north, temperate north, polar north.
ZONE_BOUNDS = {
    "e": (-23.5, 23.5),
    "s": (23.5, 35.0),
    "t": (35.0, 66.5),
    "p": (66.5, 90.0),
}
ZONE_ORDER = tuple(ZONE_BOUNDS)


@dataclass(frozen=True)
class LevelRange:
    """A pressure interval [p_lo, p_hi] in hPa selecting model levels."""

    p_lo: float
    p_hi: float

    def __post_init__(self):
        if not (0.0 < self.p_lo < self.p_hi):
            raise ConfigurationError(
                f"level range requires 0 < p_lo < p_hi, got ({self.p_lo}, {self.p_hi})"
            )


# Canonical mid-stratosphere pressure range, hPa.
STRATOSPHERE_RANGE = LevelRange(25.0, 75.0)


@dataclass(frozen=True)
class SphericalGrid:
    """Uniform lat-lon grid with nlev pressure layers.

    area_weight is normalized so the sum over all cells is exactly 1.
    dp[k] = p_interface[k+1] - p_interface[k] > 0 (p_interface runs from
    p_top down to p_surface in increasing pressure).
    """

    nlat: int
    nlon: int
    nlev: int
    lat_edges: np.ndarray
    p_interface: np.ndarray
    lat_centers: np.ndarray
    area_weight: np.ndarray  # (nlat, nlon)
    dp: np.ndarray  # (nlev,)

    @property
    def p_mid(self) -> np.ndarray:
        return 0.5 * (self.p_interface[:-1] + self.p_interface[1:])

    @property
    def dlat(self) -> float:
        return float(self.lat_edges[1] - self.lat_edges[0])


def build_grid(
    nlat: int, nlon: int, nlev: int, p_top: float, p_surface: float
) -> SphericalGrid:
    """Build a uniform grid; area weights normalized to sum to 1."""
    if nlat < 4 or nlon < 1 or nlev < 4:
        raise ConfigurationError(
            f"grid counts too small: nlat={nlat} (>=4), nlon={nlon} (>=1), nlev={nlev} (>=4)"
        )
    if not (0.0 < p_top < p_surface):
        raise ConfigurationError(
            f"pressure bounds require 0 < p_top < p_surface, got ({p_top}, {p_surface})"
        )
    lat_edges = np.linspace(-90.0, 90.0, nlat + 1)
    lat_centers = 0.5 * (lat_edges[:-1] + lat_edges[1:])
    p_interface = np.linspace(p_top, p_surface, nlev + 1)
    dp = np.diff(p_interface)

    # Weight proportional to cos(lat_center) * dlat * dlon; uniform spacing
    # makes the dlat*dlon factor constant, normalization handles the rest.
    coslat = np.cos(np.deg2rad(lat_centers))
    area_weight = np.repeat(coslat[:, None], nlon, axis=1)
    area_weight = area_weight / area_weight.sum()

    return SphericalGrid(
        nlat=nlat,
        nlon=nlon,
        nlev=nlev,
        lat_edges=lat_edges,
        p_interface=p_interface,
        lat_centers=lat_centers,
        area_weight=area_weight,
        dp=dp,
    )


def zone_of_rows(grid: SphericalGrid) -> np.ndarray:
    """Zone number per latitude row: 0 south of the zones, then 1 + the zone's index in ZONE_ORDER.

    A row is in the zone whose half-open [lo, hi) holds its cell-center latitude
    (closed at 90); the zones are contiguous, so that counts the zone starts at or south of it.
    """
    starts = [lo for lo, _ in ZONE_BOUNDS.values()]
    return np.searchsorted(starts, grid.lat_centers, side="right")


def zone_number(zone: str) -> int:
    """The number zone_of_rows gives the rows of the canonical zone labelled zone."""
    return 1 + ZONE_ORDER.index(zone)


def zone_weights(grid: SphericalGrid, zone: str) -> np.ndarray:
    """Per-cell area weights restricted to the canonical zone labelled zone, zero elsewhere."""
    in_zone = zone_of_rows(grid) == zone_number(zone)
    return np.where(in_zone[:, None], grid.area_weight, 0.0)


def level_mask(grid: SphericalGrid, level_range: LevelRange) -> np.ndarray:
    """Boolean per-level flags: mid-level pressure within [p_lo, p_hi]."""
    mid = grid.p_mid
    return (mid >= level_range.p_lo) & (mid <= level_range.p_hi)


def lat_row_index(grid: SphericalGrid, lat: float) -> int:
    """Index of the latitude row whose cell interval contains lat."""
    if lat < -90.0 or lat > 90.0:
        raise ConfigurationError(f"latitude {lat} outside [-90, 90]")
    i = int(np.searchsorted(grid.lat_edges, lat, side="right") - 1)
    return min(max(i, 0), grid.nlat - 1)
