"""QOI reductions: hand-checked values, invariances, and the canonical registry."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_state
from volpath.errors import ConfigurationError, NumericalFailureError
from volpath.grid import (
    LevelRange,
    STRATOSPHERE_RANGE,
    ZONE_ORDER,
    build_grid,
    level_mask,
    zone_weights,
)
from volpath.harness import synthetic_registry
from volpath.qoi import FIELD_NAMES, QoiSpec, RegistryEvaluator, registry_canonical
from volpath.surrogate import EruptionSpec, ModelParams, RunSeed, initialize, make_rng, step


def grid_with_dp(dp_values):
    """A small grid with hand-chosen pressure thicknesses."""
    base = build_grid(nlat=4, nlon=2, nlev=len(dp_values), p_top=1.0, p_surface=1000.0)
    p_interface = np.concatenate(([1.0], 1.0 + np.cumsum(dp_values)))
    return replace(base, p_interface=p_interface, dp=np.asarray(dp_values, dtype=float))


def qoi_oracle(spec, state, grid):
    """Scalar reference: pressure-weighted vertical mean, then area-weighted zonal mean."""
    fields = {"SO2": state.so2, "SUL": state.so4, "AOD": state.aod, "T": state.temperature}
    f = fields[spec.field]
    if spec.level_range is not None:
        mask = level_mask(grid, spec.level_range)
        dp = grid.dp[mask]
        f = np.tensordot(f[:, :, mask], dp, axes=([2], [0])) / dp.sum()
    w = zone_weights(grid, spec.zone)
    return float((f * w).sum() / w.sum())


def full_weights(grid, spec):
    """The spec's normalized weights over every cell of its field, zeros outside the zone."""
    wz = zone_weights(grid, spec.zone)
    wz = wz / wz.sum()
    if spec.level_range is None:
        return wz.ravel()
    mask = level_mask(grid, spec.level_range)
    wk = np.where(mask, grid.dp, 0.0)
    wk = wk / wk[mask].sum()
    return (wz[:, :, None] * wk[None, None, :]).ravel()


def span_mismatches(grid, specs, n_states, seed=0):
    """How many evaluate_state values differ from the full-length dot product, bitwise."""
    ev = RegistryEvaluator(grid, specs)
    weights = [full_weights(grid, s) for s in specs]
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n_states):
        state = random_state(grid, rng)
        fields = {"SO2": state.so2, "SUL": state.so4, "AOD": state.aod, "T": state.temperature}
        got = ev.evaluate_state(state)
        for value, spec, w in zip(got, specs, weights):
            bad += value != w @ fields[spec.field].ravel()
    return bad


def field_state(grid, temperature=None, aod=None):
    """A state whose temperature (3D) or AOD (2D) field is the given array."""
    state = random_state(grid, np.random.default_rng(0))
    if temperature is not None:
        state.temperature[:] = temperature
    if aod is not None:
        state.aod[:] = aod
    return state


def evaluate_one(grid, state, field, zone, level_range=None):
    """One QOI of a state, through the registry evaluator."""
    spec = QoiSpec(id=f"{field}({zone})", field=field, zone=zone, level_range=level_range)
    return float(RegistryEvaluator(grid, [spec]).evaluate_state(state)[0])


class TestVerticalReduce:
    def test_hand_computed_weighted_mean(self):
        # Two selected levels with dp 10 and 30 and values 1 and 2:
        # (1*10 + 2*30) / 40 = 1.75.
        grid = grid_with_dp([10.0, 30.0, 100.0, 200.0])
        field = np.zeros((grid.nlat, grid.nlon, grid.nlev))
        field[:, :, 0] = 1.0
        field[:, :, 1] = 2.0
        field[:, :, 2:] = 99.0
        lr = LevelRange(grid.p_mid[0], grid.p_mid[1])
        state = field_state(grid, temperature=field)
        for zone in ("e", "p"):
            assert evaluate_one(grid, state, "T", zone, lr) == pytest.approx(1.75)

    def test_constant_field_preserved(self, small_grid):
        state = field_state(small_grid, temperature=3.25)
        for zone in ZONE_ORDER:
            val = evaluate_one(small_grid, state, "T", zone, STRATOSPHERE_RANGE)
            assert val == pytest.approx(3.25, rel=1e-15)

    def test_empty_selection_rejected(self, small_grid):
        with pytest.raises(ConfigurationError, match="empty level range"):
            evaluate_one(small_grid, field_state(small_grid), "SO2", "e", LevelRange(1.5, 1.6))
        # the 4-row grid's centers, at -67.5, -22.5, 22.5 and 67.5, miss zones s and t
        grid = build_grid(nlat=4, nlon=2, nlev=4, p_top=1.0, p_surface=1000.0)
        with pytest.raises(ConfigurationError, match="zone 's' is empty for AOD"):
            evaluate_one(grid, field_state(grid), "AOD", "s")


class TestZonalReduce:
    def test_constant_field_preserved(self, small_grid):
        state = field_state(small_grid, aod=-1.5)
        for z in ZONE_ORDER:
            val = evaluate_one(small_grid, state, "AOD", z)
            assert val == pytest.approx(-1.5, rel=1e-15)

    def test_linearity(self, small_grid):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))

        def value(f):
            return evaluate_one(small_grid, field_state(small_grid, aod=f), "AOD", "t")

        assert value(2.0 * a + 3.0 * b) == pytest.approx(
            2.0 * value(a) + 3.0 * value(b), rel=1e-12
        )

    def test_value_within_field_bounds(self, small_grid):
        rng = np.random.default_rng(1)
        state = field_state(small_grid, aod=rng.uniform(5.0, 9.0, (8, 8)))
        for z in ZONE_ORDER:
            v = evaluate_one(small_grid, state, "AOD", z)
            assert 5.0 <= v <= 9.0


class TestSpecs:
    def test_registry_shape_and_order(self):
        specs = registry_canonical()
        assert len(specs) == 16
        assert [s.id for s in specs] == [
            f"{f}({z})" for f in FIELD_NAMES for z in ("e", "s", "t", "p")
        ]
        for s in specs:
            if s.field == "AOD":
                assert s.level_range is None
            else:
                assert s.level_range == STRATOSPHERE_RANGE

    def test_aod_spec_rejects_level_range(self):
        with pytest.raises(ConfigurationError):
            QoiSpec(id="AOD(e)", field="AOD", zone="e", level_range=STRATOSPHERE_RANGE)

    def test_3d_spec_requires_level_range(self):
        with pytest.raises(ConfigurationError):
            QoiSpec(id="SO2(e)", field="SO2", zone="e", level_range=None)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            QoiSpec(id="X(e)", field="X", zone="e", level_range=STRATOSPHERE_RANGE)

    @pytest.mark.parametrize("zone", ["g", "E", "", None])
    def test_unknown_zone_rejected(self, zone):
        with pytest.raises(ConfigurationError, match="unknown zone"):
            QoiSpec(id="T(g)", field="T", zone=zone, level_range=STRATOSPHERE_RANGE)


class TestRegistryEvaluator:
    def test_agrees_with_single_evaluation(self, small_grid):
        state = random_state(small_grid, np.random.default_rng(3), step_index=2)
        specs = registry_canonical()
        ev = RegistryEvaluator(small_grid, specs)
        vec = ev.evaluate_state(state)
        for i, spec in enumerate(specs):
            assert vec[i] == pytest.approx(qoi_oracle(spec, state, small_grid), rel=1e-12)

    def test_nonfinite_value_detected(self, small_grid):
        state = random_state(small_grid, np.random.default_rng(3))
        state.temperature[:] = np.nan
        ev = RegistryEvaluator(small_grid, registry_canonical())
        with pytest.raises(NumericalFailureError):
            ev.evaluate_state(state)

    def test_empty_level_range_rejected(self, small_grid):
        spec = QoiSpec(id="T(e)", field="T", zone="e", level_range=LevelRange(1.5, 1.6))
        with pytest.raises(ConfigurationError):
            RegistryEvaluator(small_grid, [spec])


class TestSharedSpans:
    def test_repeated_reductions_share_one_span(self):
        grid = build_grid(32, 64, 16, p_top=1.0, p_surface=1000.0)
        ev = RegistryEvaluator(grid, synthetic_registry(875))
        canon_t = RegistryEvaluator(grid, [s for s in registry_canonical() if s.field == "T"])
        # each reduction's weights are one array, broadcast to a row per spec
        assert all(w.strides[0] == 0 for *_, w in ev._reductions)
        shared = [w[0] for *_, w in ev._reductions]
        assert sum(len(rows) for _, _, rows, _ in ev._reductions) == 875 and len(shared) == 4
        canon_bytes = sum(w[0].nbytes for *_, w in canon_t._reductions)
        assert sum(w.nbytes for w in shared) == canon_bytes

    def test_shared_spans_give_each_spec_its_canonical_value(self):
        grid = build_grid(16, 8, 8, p_top=1.0, p_surface=1000.0)
        params, rng = ModelParams(n_steps=20), make_rng(RunSeed(2))
        state = initialize(params, grid, rng)
        for _ in range(params.n_steps):
            state = step(state, params, EruptionSpec(mass=10.0, day=0.0), grid, rng)
        canon_t = [s for s in registry_canonical() if s.field == "T"]
        t = RegistryEvaluator(grid, canon_t).evaluate_state(state)
        got = RegistryEvaluator(grid, synthetic_registry(875)).evaluate_state(state)
        assert np.array_equal(got, np.tile(t, 219)[:875])

    def test_nan_in_a_shared_span_names_the_first_spec(self, small_grid):
        t_e = QoiSpec("T(e)", "T", "e", STRATOSPHERE_RANGE)
        specs = [QoiSpec("AOD(e)", "AOD", "e", None), replace(t_e, id="first"),
                 replace(t_e, id="second")]
        state = random_state(small_grid, np.random.default_rng(3), step_index=4)
        state.temperature[:] = np.nan
        with pytest.raises(NumericalFailureError, match="for first at step 4"):
            RegistryEvaluator(small_grid, specs).evaluate_state(state)

    @pytest.mark.parametrize("nan_field, named", [("aod", "b"), ("temperature", "a")])
    def test_nan_names_the_first_spec_in_registry_order(self, small_grid, nan_field, named):
        # T(e) is evaluated in one call for "a" and "c", but the check still
        # scans the values in registry order
        t_e = QoiSpec("a", "T", "e", STRATOSPHERE_RANGE)
        specs = [t_e, QoiSpec("b", "AOD", "e", None), replace(t_e, id="c")]
        state = random_state(small_grid, np.random.default_rng(3), step_index=4)
        getattr(state, nan_field)[:] = np.nan
        with pytest.raises(NumericalFailureError, match=f"for {named} at step 4"):
            RegistryEvaluator(small_grid, specs).evaluate_state(state)

    def test_empty_registry(self, small_grid):
        state = random_state(small_grid, np.random.default_rng(0))
        assert RegistryEvaluator(small_grid, []).evaluate_state(state).shape == (0,)


def extra_specs():
    """Specs with level ranges other than the canonical one."""
    return [
        QoiSpec("T(p)/all", "T", "p", LevelRange(1.0, 1000.0)),
        QoiSpec("SUL(t)/mid", "SUL", "t", LevelRange(100.0, 600.0)),
        QoiSpec("SO2(e)/low", "SO2", "e", LevelRange(400.0, 999.0)),
        QoiSpec("T(s)/top", "T", "s", LevelRange(1.0, 80.0)),
    ]


def repeated_shuffled(specs, seed=0):
    """Each spec repeated 1 to 5 times under ids of its own, in a shuffled order."""
    rng = np.random.default_rng(seed)
    out = [replace(s, id=f"{s.id}#{k}") for s in specs for k in range(rng.integers(1, 6))]
    return [out[i] for i in rng.permutation(len(out))]


def single_thread_mismatches(registry):
    """span_mismatches on the default grid for the registry expression, at one BLAS thread
    in a fresh process."""
    code = (
        "import sys; sys.path.insert(0, 'tests'); from test_qoi import *\n"
        "grid = build_grid(32, 64, 16, p_top=1.0, p_surface=1000.0)\n"
        f"print(span_mismatches(grid, {registry}, 5))\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestSpanEvaluation:
    # Fields here stay under the ~10,000 elements above which OpenBLAS splits a
    # dot product across threads, so the full-length product is the same at
    # any thread count.
    @pytest.mark.parametrize("dims", [(8, 8, 8), (13, 7, 11), (16, 33, 7), (9, 5, 13)])
    def test_equals_full_weight_dot_bitwise(self, dims):
        grid = build_grid(*dims, p_top=1.0, p_surface=1000.0)
        specs = [s for s in registry_canonical() + extra_specs()
                 if zone_weights(grid, s.zone).any()]
        assert span_mismatches(grid, specs, n_states=10) == 0

    def test_default_grid_single_thread(self):
        # The default grid's full-length products exceed that size, so they are
        # compared at one thread in a fresh process.
        assert single_thread_mismatches("registry_canonical() + extra_specs()") == "0"

    # Specs that share a reduction are evaluated in one np.vecdot call; each
    # value must still equal its own full-length product, wherever it sits.
    @pytest.mark.parametrize("dims", [(8, 8, 8), (13, 7, 11), (16, 33, 7), (9, 5, 13)])
    def test_repeated_shuffled_registry_bitwise(self, dims):
        grid = build_grid(*dims, p_top=1.0, p_surface=1000.0)
        specs = repeated_shuffled([s for s in registry_canonical() + extra_specs()
                                   if zone_weights(grid, s.zone).any()], seed=sum(dims))
        assert len(specs) > len({(s.field, s.zone, s.level_range) for s in specs})
        assert span_mismatches(grid, specs, n_states=10) == 0

    def test_repeated_shuffled_registry_default_grid_single_thread(self):
        registry = "repeated_shuffled(registry_canonical() + extra_specs(), seed=1)"
        assert single_thread_mismatches(registry) == "0"
