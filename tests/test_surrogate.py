"""Surrogate model stepping: determinism, conservation, linearity, failure modes."""

import numpy as np
import pytest

from conftest import STEPPER_CASES, random_state, total_sulfur_kg
from volpath.errors import ConfigurationError, NumericalFailureError
from volpath.grid import LevelRange, build_grid, lat_row_index, level_mask, zone_of_rows
from volpath.surrogate import (
    AIR_MASS_PER_HPA_KG,
    N_NOISE_BANDS,
    EruptionSpec,
    ModelParams,
    ModelState,
    RunSeed,
    Stepper,
    TG_TO_KG,
    initialize,
    make_rng,
    step,
)


def step_oracle(state, params, eruption, grid, rng):
    """Reference step: every quantity recomputed, fresh arrays for every result.

    Fancy level indexing and out-of-place arithmetic, in the order of the
    model's formulas; a Stepper's two halves must reproduce it bit for bit.
    """
    dt = params.dt
    so2, so4, temp = state.so2.copy(), state.so4.copy(), state.temperature.copy()
    lev_flags = level_mask(grid, eruption.injection_levels)
    lev_idx = np.nonzero(lev_flags)[0]
    i_src = lat_row_index(grid, eruption.lat)
    if eruption.mass > 0.0 and state.time <= eruption.day < state.time + dt:
        cells = np.zeros((grid.nlat, grid.nlon), dtype=bool)
        cells[i_src, :] = True
        denom = grid.area_weight[cells].sum() * grid.dp[lev_flags].sum() * AIR_MASS_PER_HPA_KG
        inc = np.zeros_like(so2)
        inc[cells[:, :, None] & lev_flags[None, None, :]] = eruption.mass * TG_TO_KG / denom
        so2 += inc
    transferred = so2 * (1.0 - np.exp(-dt / params.tau_chem))
    so2 -= transferred
    so4 += transferred
    if params.tau_decay is not None:
        so4 *= np.exp(-dt / params.tau_decay)
    frac = params.v_transport * dt / grid.dlat
    if frac != 0.0 and i_src < grid.nlat - 1:
        w = grid.area_weight[:, :, None] * grid.dp[lev_idx][None, None, :]
        for f in (so2, so4):
            mass = f[:, :, lev_idx] * w
            donor = frac * mass[i_src:-1]
            mass[i_src:-1] -= donor
            mass[i_src + 1 :] += donor
            f[:, :, lev_idx] = mass / w
    aod = params.k_aod * np.tensordot(so4, grid.dp, axes=([2], [0]))
    temp += dt * (-(temp - params.t_eq) / params.tau_relax)
    temp[:, :, lev_idx] += dt * params.k_heat * aod[:, :, None]
    innovations = params.noise_amp * np.sqrt(dt) * rng.standard_normal(N_NOISE_BANDS)
    band_noise = params.noise_memory * state.band_noise + innovations
    temp += band_noise[zone_of_rows(grid)][:, None, None]
    return ModelState(so2, so4, temp, aod, state.step_index + 1, state.time + dt, band_noise)


def state_arrays(state):
    return (state.so2, state.so4, state.temperature, state.aod, state.band_noise,
            np.array([state.step_index, state.time]))


def run_series(params, eruption, grid, seed, collect=None):
    """Advance a run and collect per-step values via an optional callback."""
    rng = make_rng(seed)
    state = initialize(params, grid, rng=rng)
    out = [collect(state)] if collect else None
    for _ in range(params.n_steps):
        state = step(state, params, eruption, grid, rng)
        if collect:
            out.append(collect(state))
    return state, out


class TestParams:
    def test_preset_is_valid(self):
        ModelParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau_chem=0.0),
            dict(tau_decay=-1.0),
            dict(tau_relax=0.0),
            dict(dt=0.0),
            dict(noise_memory=1.0),
            dict(noise_memory=-0.1),
            dict(v_transport=-0.1),
            dict(n_steps=0),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModelParams(**kwargs)

    def test_negative_mass_rejected(self):
        for mass in (-1.0, float("nan"), float("inf"), 1e300):
            with pytest.raises(ConfigurationError, match="finite number >= 0"):
                EruptionSpec(mass=mass)


class TestDeterminism:
    def test_identical_seeds_give_identical_states(self, small_grid, fast_params):
        eruption = EruptionSpec(mass=10.0, day=2.0)
        seed = RunSeed(seed=42, member_index=3)
        a, _ = run_series(fast_params, eruption, small_grid, seed)
        b, _ = run_series(fast_params, eruption, small_grid, seed)
        assert np.array_equal(a.so2, b.so2)
        assert np.array_equal(a.so4, b.so4)
        assert np.array_equal(a.temperature, b.temperature)
        assert np.array_equal(a.aod, b.aod)
        assert np.array_equal(a.band_noise, b.band_noise)

    def test_member_index_changes_the_stream(self, small_grid, fast_params):
        eruption = EruptionSpec(mass=10.0, day=2.0)
        a, _ = run_series(fast_params, eruption, small_grid, RunSeed(42, 0))
        b, _ = run_series(fast_params, eruption, small_grid, RunSeed(42, 1))
        assert not np.array_equal(a.temperature, b.temperature)

    def test_band_noise_starts_at_stationary_scale(self, small_grid):
        params = ModelParams(n_steps=1)
        draws = np.array(
            [
                initialize(params, small_grid, rng=make_rng(RunSeed(i))).band_noise
                for i in range(200)
            ]
        )
        expected = params.noise_amp * np.sqrt(
            params.dt / (1.0 - params.noise_memory**2)
        )
        assert draws.std() == pytest.approx(expected, rel=0.15)


class TestMassBudget:
    def test_quiet_run_has_zero_tracers(self, small_grid, fast_params):
        state, _ = run_series(
            fast_params, EruptionSpec(mass=0.0), small_grid, RunSeed(1)
        )
        assert np.all(state.so2 == 0.0)
        assert np.all(state.so4 == 0.0)
        assert np.all(state.aod == 0.0)

    def test_injection_recovers_mass(self, small_grid):
        params = ModelParams(tau_decay=None, n_steps=1)
        eruption = EruptionSpec(mass=10.0, day=0.0)
        state, _ = run_series(params, eruption, small_grid, RunSeed(1))
        assert total_sulfur_kg(state, small_grid) == pytest.approx(
            10.0 * TG_TO_KG, rel=1e-12
        )

    def test_conservation_without_decay(self, small_grid):
        params = ModelParams(tau_decay=None, n_steps=400)
        eruption = EruptionSpec(mass=10.0, day=2.0)
        _, masses = run_series(
            params, eruption, small_grid, RunSeed(1),
            collect=lambda s: total_sulfur_kg(s, small_grid),
        )
        post = np.array(masses[9:])  # injection lands in step covering day 2
        assert np.allclose(post, 10.0 * TG_TO_KG, rtol=1e-10)

    def test_scalar_budget_recurrence(self, small_grid):
        # Chemistry acts uniformly and transport conserves each tracer, so the
        # global per-tracer masses obey an exact two-variable recurrence.
        params = ModelParams(n_steps=200)
        eruption = EruptionSpec(mass=10.0, day=0.0)

        def masses(s):
            col2 = np.tensordot(s.so2, small_grid.dp, axes=([2], [0]))
            col4 = np.tensordot(s.so4, small_grid.dp, axes=([2], [0]))
            w = small_grid.area_weight
            return (
                float((col2 * w).sum() * AIR_MASS_PER_HPA_KG),
                float((col4 * w).sum() * AIR_MASS_PER_HPA_KG),
            )

        _, series = run_series(params, eruption, small_grid, RunSeed(1), collect=masses)
        decay2 = np.exp(-params.dt / params.tau_chem)
        decay4 = np.exp(-params.dt / params.tau_decay)
        s2, s4 = 10.0 * TG_TO_KG * decay2, 10.0 * TG_TO_KG * (1 - decay2) * decay4
        for m in range(1, params.n_steps + 1):
            got2, got4 = series[m]
            assert got2 == pytest.approx(s2, rel=1e-10)
            assert got4 == pytest.approx(s4, rel=1e-10)
            s2, s4 = s2 * decay2, (s4 + s2 * (1 - decay2)) * decay4

    def test_tracers_stay_nonnegative(self, small_grid, fast_params):
        eruption = EruptionSpec(mass=20.0, day=1.0)

        def check(s):
            assert (s.so2 >= 0).all() and (s.so4 >= 0).all() and (s.aod >= 0).all()
            return None

        run_series(fast_params, eruption, small_grid, RunSeed(1), collect=check)


class TestLinearity:
    def test_tracers_linear_in_mass(self, small_grid, fast_params):
        seed = RunSeed(7)
        a, _ = run_series(fast_params, EruptionSpec(mass=5.0, day=1.0), small_grid, seed)
        b, _ = run_series(fast_params, EruptionSpec(mass=10.0, day=1.0), small_grid, seed)
        assert np.allclose(b.so2, 2.0 * a.so2, rtol=1e-12)
        assert np.allclose(b.so4, 2.0 * a.so4, rtol=1e-12)
        assert np.allclose(b.aod, 2.0 * a.aod, rtol=1e-12)

    def test_noise_independent_of_mass(self, small_grid, fast_params):
        seed = RunSeed(7)
        a, _ = run_series(fast_params, EruptionSpec(mass=0.0), small_grid, seed)
        b, _ = run_series(fast_params, EruptionSpec(mass=10.0, day=1.0), small_grid, seed)
        assert np.array_equal(a.band_noise, b.band_noise)


class TestLimits:
    def test_no_transport_keeps_plume_in_source_rows(self, small_grid):
        params = ModelParams(v_transport=0.0, n_steps=40)
        eruption = EruptionSpec(mass=10.0, day=1.0, lat=15.1)
        state, _ = run_series(params, eruption, small_grid, RunSeed(1))
        injected_row = np.argmax(state.so2.sum(axis=(1, 2)))
        other = np.delete(state.so2.sum(axis=(1, 2)), injected_row)
        assert np.all(other == 0.0)

    def test_slow_chemistry_keeps_aod_tiny(self, small_grid):
        params = ModelParams(tau_chem=1e9, n_steps=40)
        eruption = EruptionSpec(mass=10.0, day=1.0)
        state, _ = run_series(params, eruption, small_grid, RunSeed(1))
        assert state.aod.max() < 1e-6
        assert state.so4.max() < state.so2.max() * 1e-4

    def test_cfl_violation_rejected(self, small_grid):
        params = ModelParams(v_transport=200.0, n_steps=4)
        eruption = EruptionSpec(mass=10.0, day=0.0)
        with pytest.raises(ConfigurationError, match="CFL"):
            run_series(params, eruption, small_grid, RunSeed(1))

    def test_noise_bands_of_default_grid_rows(self):
        # 0 south of -23.5 deg, then the zones e, s, t, p as 1..4
        grid = build_grid(nlat=32, nlon=64, nlev=16, p_top=1.0, p_surface=1000.0)
        expected = [0] * 12 + [1] * 8 + [2] * 2 + [3] * 6 + [4] * 4
        assert zone_of_rows(grid).tolist() == expected


class TestFailureDetection:
    def test_nan_state_raises(self, small_grid, fast_params):
        rng = make_rng(RunSeed(1))
        state = initialize(fast_params, small_grid, rng=rng)
        state.temperature[0, 0, 0] = np.nan
        with pytest.raises(NumericalFailureError) as exc_info:
            step(state, fast_params, EruptionSpec(mass=0.0), small_grid, rng)
        assert exc_info.value.step_index == 1


class TestStepper:
    @pytest.mark.parametrize("params, eruption", STEPPER_CASES)
    @pytest.mark.parametrize("dims", [(8, 8, 8), (13, 7, 11)])
    def test_advance_matches_step_loop_and_oracle(self, params, eruption, dims):
        grid = build_grid(*dims, p_top=1.0, p_surface=1000.0)
        stepper = Stepper(params, eruption, grid)
        rngs = [make_rng(RunSeed(3, 1)) for _ in range(3)]
        # nonzero tracers and temperatures far from t_eq use every mantissa bit,
        # so a reordered operation shows in the last bit
        halves, stepped, oracle = (random_state(grid, np.random.default_rng(5))
                                   for _ in range(3))
        # the halves draw the run's normals in one call, as run_lockstep does
        normals = rngs[0].standard_normal((params.n_steps, N_NOISE_BANDS))
        noise = stepper.noise_path(halves.band_noise, normals)
        for m in range(params.n_steps):
            stepper.advance_tracers(halves)
            stepper.advance_temperature(halves, noise[m])
            stepped = step(stepped, params, eruption, grid, rngs[1])
            oracle = step_oracle(oracle, params, eruption, grid, rngs[2])
            for h, b, c in zip(state_arrays(halves), state_arrays(stepped),
                               state_arrays(oracle)):
                assert np.array_equal(h, c) and np.array_equal(b, c)
        assert halves.step_index == params.n_steps

    @pytest.mark.parametrize("dims", [(32, 64, 16), (32, 1, 16), (16, 8, 8), (64, 128, 16)])
    def test_aod_equals_tensordot(self, dims):
        grid = build_grid(*dims, p_top=1.0, p_surface=1000.0)
        params = ModelParams()
        state = random_state(grid, np.random.default_rng(7))
        Stepper(params, EruptionSpec(mass=10.0, day=0.0), grid).advance_tracers(state)
        oracle = params.k_aod * np.tensordot(state.so4, grid.dp, axes=([2], [0]))
        assert np.array_equal(state.aod, oracle)

    def test_zone_temperature_steps_band_noise_as_the_field_does(self, small_grid, fast_params):
        # one noise path drives both halves, and equals the AR(1) stepped one draw at a time;
        # from a uniform field without AOD, each zone mean steps as its band's cells do
        stepper = Stepper(fast_params, EruptionSpec(mass=0.0), small_grid)
        state = initialize(fast_params, small_grid, rng=make_rng(RunSeed(3)))
        state.temperature[:] = 240.0
        start = np.random.default_rng(6).standard_normal(N_NOISE_BANDS)
        normals = make_rng(RunSeed(3, 1)).standard_normal((fast_params.n_steps, N_NOISE_BANDS))
        noise = stepper.noise_path(start, normals.copy())
        scale = fast_params.noise_amp * np.sqrt(fast_params.dt)
        bn, t, bands = start, np.full((1, 4), 240.0), zone_of_rows(small_grid)
        assert set(bands) > {0}
        for z, row in zip(normals, noise):
            bn = fast_params.noise_memory * bn + scale * z
            assert np.array_equal(row, bn)
            stepper.advance_temperature(state, row)
            assert state.band_noise is row
            # the zones e, s, t, p are the noise bands 1-4
            t = stepper.advance_zone_temperature(t, np.zeros(4), row[None, 1:])
            for i, band in enumerate(bands):
                assert band == 0 or (state.temperature[i] == t[0, band - 1]).all(), (i, band)
        # noise_path overwrote only the normals it was given
        assert np.array_equal(start, np.random.default_rng(6).standard_normal(N_NOISE_BANDS))

    def test_step_leaves_input_unchanged(self, small_grid, fast_params):
        eruption = EruptionSpec(mass=10.0, day=0.0)
        rng = make_rng(RunSeed(1))
        state = initialize(fast_params, small_grid, rng=rng)
        before = [a.copy() for a in state_arrays(state)]
        new = step(state, fast_params, eruption, small_grid, rng)
        for a, b in zip(state_arrays(state), before):
            assert np.array_equal(a, b)
        assert new.step_index == 1 and new.so2.any()
        for a, b in zip(state_arrays(state)[:5], state_arrays(new)[:5]):
            assert not np.shares_memory(a, b)

    def test_cfl_error_before_any_step(self, small_grid):
        params = ModelParams(v_transport=200.0, n_steps=4)
        with pytest.raises(ConfigurationError, match="CFL"):
            Stepper(params, EruptionSpec(mass=0.0), small_grid)

    def test_empty_injection_selection_rejected_when_built(self, small_grid):
        # the eruption day lies past the run, so no step would reach the injection
        params = ModelParams(n_steps=4)
        empty = LevelRange(1.5, 1.6)
        with pytest.raises(ConfigurationError, match="injection selection is empty"):
            Stepper(params, EruptionSpec(mass=10.0, day=90.0, injection_levels=empty),
                    small_grid)
        Stepper(params, EruptionSpec(mass=0.0, injection_levels=empty), small_grid)
