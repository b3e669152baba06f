"""Grid construction, zone membership, and level selection."""

import numpy as np
import pytest

from volpath.errors import ConfigurationError
from volpath.grid import (
    LevelRange,
    STRATOSPHERE_RANGE,
    ZONE_BOUNDS,
    ZONE_ORDER,
    build_grid,
    lat_row_index,
    level_mask,
    zone_of_rows,
    zone_weights,
)


class TestBuildGrid:
    def test_minimal_example_grid(self):
        grid = build_grid(nlat=4, nlon=8, nlev=4, p_top=1.0, p_surface=1000.0)
        assert grid.nlat == 4 and grid.nlon == 8 and grid.nlev == 4
        assert np.allclose(grid.dp, 249.75)
        assert grid.lat_edges[0] == -90.0 and grid.lat_edges[-1] == 90.0

    def test_area_weights_normalized(self, small_grid):
        assert small_grid.area_weight.shape == (8, 8)
        assert small_grid.area_weight.sum() == pytest.approx(1.0, abs=1e-14)
        assert (small_grid.area_weight > 0).all()

    def test_weights_symmetric_about_equator(self, small_grid):
        w = small_grid.area_weight[:, 0]
        assert np.allclose(w, w[::-1])

    def test_p_mid_between_interfaces(self, small_grid):
        mid = small_grid.p_mid
        assert (mid > small_grid.p_interface[:-1]).all()
        assert (mid < small_grid.p_interface[1:]).all()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nlat=3, nlon=8, nlev=8, p_top=1.0, p_surface=1000.0),
            dict(nlat=8, nlon=0, nlev=8, p_top=1.0, p_surface=1000.0),
            dict(nlat=8, nlon=8, nlev=3, p_top=1.0, p_surface=1000.0),
            dict(nlat=8, nlon=8, nlev=8, p_top=0.0, p_surface=1000.0),
            dict(nlat=8, nlon=8, nlev=8, p_top=1000.0, p_surface=1.0),
        ],
    )
    def test_invalid_dimensions_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            build_grid(**kwargs)


class TestZones:
    def test_canonical_zone_bounds(self):
        assert ZONE_ORDER == ("e", "s", "t", "p")
        assert ZONE_BOUNDS["e"] == (-23.5, 23.5)
        assert ZONE_BOUNDS["p"] == (66.5, 90.0)

    def test_zone_spec_validation(self):
        # zone_of_rows counts zone starts, which is right only for this layout
        bounds = list(ZONE_BOUNDS.values())
        assert all(-90.0 <= lo < hi <= 90.0 for lo, hi in bounds)
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        assert bounds[-1][1] == 90.0

    def test_zone_area_fraction_quadrature(self):
        # On a fine grid the weight in a band converges to its exact area
        # fraction (sin(hi) - sin(lo)) / 2.
        grid = build_grid(nlat=720, nlon=4, nlev=4, p_top=1.0, p_surface=1000.0)
        for label, (lo, hi) in ZONE_BOUNDS.items():
            got = zone_weights(grid, label).sum()
            exact = (np.sin(np.deg2rad(hi)) - np.sin(np.deg2rad(lo))) / 2.0
            assert got == pytest.approx(exact, rel=5e-3), label

    def test_zones_partition_north_of_equatorial_band(self, small_grid):
        total = sum(zone_weights(small_grid, z) for z in ZONE_ORDER)
        in_any = np.zeros(small_grid.nlat, dtype=int)
        for z in ZONE_ORDER:
            in_any += (zone_weights(small_grid, z)[:, 0] > 0).astype(int)
        for i, c in enumerate(small_grid.lat_centers):
            expected = 1 if c >= -23.5 else 0
            assert in_any[i] == expected, f"row {i} at {c} deg in {in_any[i]} zones"
        covered = small_grid.lat_centers >= -23.5
        assert np.allclose(
            total[covered], small_grid.area_weight[covered]
        )
        assert np.all(total[~covered] == 0.0)

    def test_membership_is_half_open(self):
        # A cell center exactly on a shared boundary belongs to the northern
        # zone; with 18 rows one center sits exactly at latitude 35.
        grid = build_grid(nlat=18, nlon=4, nlev=4, p_top=1.0, p_surface=1000.0)
        row = int(np.flatnonzero(grid.lat_centers == 35.0)[0])
        assert zone_of_rows(grid)[row] == 1 + ZONE_ORDER.index("t")
        assert zone_weights(grid, "s")[row].sum() == 0.0
        assert zone_weights(grid, "t")[row].sum() > 0.0

    def test_zone_of_rows_matches_interval_membership(self):
        # against each row's interval test, on grids with centers on the boundaries
        for nlat in (4, 8, 9, 18, 32, 180, 360):
            grid = build_grid(nlat=nlat, nlon=1, nlev=4, p_top=1.0, p_surface=1000.0)
            expected = [
                next((1 + i for i, (lo, hi) in enumerate(ZONE_BOUNDS.values())
                      if lo <= c < hi or c == hi == 90.0), 0)
                for c in grid.lat_centers
            ]
            assert zone_of_rows(grid).tolist() == expected, nlat


class TestLevels:
    def test_level_range_validation(self):
        with pytest.raises(ConfigurationError):
            LevelRange(0.0, 10.0)
        with pytest.raises(ConfigurationError):
            LevelRange(75.0, 25.0)

    def test_level_mask_matches_enumeration(self, small_grid):
        for lr in (STRATOSPHERE_RANGE, LevelRange(1.0, 1000.0), LevelRange(400.0, 600.0)):
            mask = level_mask(small_grid, lr)
            expected = np.array(
                [lr.p_lo <= p <= lr.p_hi for p in small_grid.p_mid]
            )
            assert np.array_equal(mask, expected)

    def test_stratosphere_range_nonempty_on_default_grid(self):
        grid = build_grid(nlat=32, nlon=64, nlev=16, p_top=1.0, p_surface=1000.0)
        assert level_mask(grid, STRATOSPHERE_RANGE).sum() >= 1


class TestLatRowIndex:
    def test_contains_latitude(self, small_grid):
        for lat in (-89.9, -23.5, 0.0, 15.1, 66.5, 89.9):
            i = lat_row_index(small_grid, lat)
            assert small_grid.lat_edges[i] <= lat <= small_grid.lat_edges[i + 1]

    def test_poles_clamped_to_valid_rows(self, small_grid):
        assert lat_row_index(small_grid, -90.0) == 0
        assert lat_row_index(small_grid, 90.0) == small_grid.nlat - 1

    def test_out_of_range_rejected(self, small_grid):
        with pytest.raises(ConfigurationError):
            lat_row_index(small_grid, 90.5)
        with pytest.raises(ConfigurationError):
            lat_row_index(small_grid, -91.0)
