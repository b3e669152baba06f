"""Experiment harness: seeds, member runs, ensembles, and the overhead bench."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import NanDrawsFrom, STEPPER_CASES, collect_grid, total_sulfur_kg
from volpath import harness, surrogate
from volpath.cli import build_parser
from volpath.errors import ConfigurationError, NumericalFailureError
from volpath.grid import LevelRange, build_grid, zone_number
from volpath.harness import (
    DEFAULT_EXPERIMENTS,
    ExperimentPlan,
    TrackerHook,
    bench_overhead,
    canonical_series,
    derive_seed,
    experiment_tables,
    run_baseline_ensemble,
    run_experiment_grid,
    run_member,
    synthetic_registry,
    tracer_unit_rows,
)
from volpath.pathway import base_dag_canonical, canonical_tests, compute_pathway, score_tables
from volpath.qoi import RegistryEvaluator, level_share, registry_canonical
from volpath.surrogate import (
    N_NOISE_BANDS, PRESET_PARAMS, TG_TO_KG, EruptionSpec, ModelParams, Stepper, initialize,
    make_rng,
)


@pytest.fixture
def tiny_setup():
    """Coarse grid and short run for end-to-end harness tests."""
    grid = build_grid(nlat=8, nlon=8, nlev=8, p_top=1.0, p_surface=1000.0)
    params = ModelParams(n_steps=40)
    eruption = EruptionSpec(mass=10.0, day=2.0)
    return grid, params, eruption


class TestPlan:
    def test_defaults(self):
        plan = ExperimentPlan()
        assert plan.masses == (5.0, 10.0, 20.0)
        assert plan.experiments == DEFAULT_EXPERIMENTS
        assert plan.n_members == 10 and plan.baseline_members == 10
        assert [e[0] for e in DEFAULT_EXPERIMENTS] == ["Ex1", "Ex2", "Ex3", "Ex4"]
        assert all(e[1] == 0.5 for e in DEFAULT_EXPERIMENTS)
        assert [e[2] for e in DEFAULT_EXPERIMENTS] == [0.75, 1.0, 1.5, 2.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentPlan(n_members=1)
        with pytest.raises(ConfigurationError):
            ExperimentPlan(baseline_members=0)
        with pytest.raises(ConfigurationError):
            ExperimentPlan(experiments=(("bad", 2.0, 1.0),))


class TestDeriveSeed:
    def test_values_are_stable(self):
        # Frozen values: member runs must stay reproducible across releases.
        assert derive_seed(20260964, "eruption", 0).seed == 14128781892261328203
        assert derive_seed(20260964, "baseline", 3).seed == 13974203529804703691

    def test_distinct_roles_and_members(self):
        seeds = {
            derive_seed(1, role, b).seed
            for role in ("baseline", "eruption")
            for b in range(20)
        }
        assert len(seeds) == 40

    def test_member_index_carried(self):
        assert derive_seed(1, "eruption", 7).member_index == 7


class TestTrackerHook:
    def test_series_shape_and_ids(self, tiny_setup):
        grid, params, eruption = tiny_setup
        hook = TrackerHook(grid, registry_canonical(), params.n_steps, params.dt)
        result = run_member(params, eruption, grid, derive_seed(1, "eruption", 0), hook)
        assert set(result.series) == {s.id for s in registry_canonical()}
        assert all(len(v) == params.n_steps + 1 for v in result.series.values())

    def test_run_member_deterministic(self, tiny_setup):
        grid, params, eruption = tiny_setup
        seed = derive_seed(5, "eruption", 2)
        results = []
        for _ in range(2):
            hook = TrackerHook(grid, registry_canonical(), params.n_steps, params.dt)
            results.append(run_member(params, eruption, grid, seed, hook))
        for qid in results[0].series:
            assert np.array_equal(results[0].series[qid], results[1].series[qid])


def series_digest_at(threads: int) -> str:
    """sha256 of a default-grid member's QOI series, run in a process with this many BLAS threads."""
    code = (
        "import hashlib\n"
        "from volpath.grid import build_grid\n"
        "from volpath.harness import TrackerHook, derive_seed, run_member\n"
        "from volpath.qoi import registry_canonical\n"
        "from volpath.surrogate import EruptionSpec, ModelParams\n"
        "grid = build_grid(32, 64, 16, p_top=1.0, p_surface=1000.0)\n"
        "params = ModelParams(n_steps=200)\n"
        "hook = TrackerHook(grid, registry_canonical(), params.n_steps, params.dt)\n"
        "eruption = EruptionSpec(mass=10.0, day=2.0)\n"
        "run_member(params, eruption, grid, derive_seed(0, 'eruption', 0), hook)\n"
        "print(hashlib.sha256(hook.series.tobytes()).hexdigest())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_series_identical_at_one_and_two_blas_threads():
    # every QOI dot product stays below the length at which OpenBLAS splits it
    # across threads, so the thread count cannot reorder its sum
    assert series_digest_at(1) == series_digest_at(2)


class TestBaselineEnsemble:
    def test_tracers_zero_and_temperature_spread(self, tiny_setup):
        grid, params, _ = tiny_setup
        plan = ExperimentPlan(n_members=2, baseline_members=3, seed=11)
        stats = run_baseline_ensemble(plan, params, grid, EruptionSpec())
        # only the z-scored QOIs are kept, in registry order
        assert list(stats) == [s.id for s in registry_canonical() if s.field == "T"]
        for st in stats.values():
            assert st.n == 3
            assert (st.std()[1:] > 0).all()
        # the quiet members' tracers stay zero, so a tracer baseline would hold nothing
        seeds = [derive_seed(11, "baseline", b) for b in range(3)]
        [(_, members)] = canonical_series(params, EruptionSpec(), grid, seeds, (0.0,))
        for series in members:
            assert len(series) == 16
            for qid, values in series.items():
                if not qid.startswith("T("):
                    assert np.all(values == 0.0), qid


class TestExperimentGrid:
    def test_shape_and_determinism(self, tiny_setup):
        grid, params, _ = tiny_setup
        plan = ExperimentPlan(
            masses=(5.0, 10.0),
            experiments=(("Ex1", 0.5, 0.75),),
            n_members=2,
            baseline_members=2,
            seed=11,
        )
        baselines = run_baseline_ensemble(plan, params, grid, EruptionSpec())
        tables = experiment_tables(plan, params.n_steps, baselines)
        rows_a, pathways_a = collect_grid(
            run_experiment_grid(plan, params, grid, tables, EruptionSpec())
        )
        rows_b, pathways_b = collect_grid(
            run_experiment_grid(plan, params, grid, tables, EruptionSpec())
        )
        assert len(rows_a) == 2 * 1 * 16
        assert set(pathways_a) == {
            (m, "Ex1", i) for m in (5.0, 10.0) for i in range(2)
        }
        assert rows_a == rows_b
        for key in pathways_a:
            assert np.array_equal(pathways_a[key].activation, pathways_b[key].activation)

    def test_yields_each_mass_before_stepping_the_next(self, tiny_setup, monkeypatch):
        grid, params, eruption = tiny_setup
        plan = ExperimentPlan(masses=(5.0, 10.0), experiments=DEFAULT_EXPERIMENTS[:2],
                              n_members=2, baseline_members=2, seed=11)
        baselines = run_baseline_ensemble(plan, params, grid, EruptionSpec())
        tables = experiment_tables(plan, params.n_steps, baselines)
        stepped, tabled = [], []
        advance, score = harness.Stepper.advance_zone_temperature, score_tables
        # each zone step's heated AOD, which tells the masses apart
        monkeypatch.setattr(harness.Stepper, "advance_zone_temperature",
                            lambda self, t, aod, *a: stepped.append(aod.max())
                            or advance(self, t, aod, *a))
        monkeypatch.setattr(harness, "score_tables", lambda *a: tabled.append(a) or score(*a))
        grid_run = run_experiment_grid(plan, params, grid, tables, eruption)
        mass, pathways, rows = next(grid_run)
        assert mass == 5.0 and len(stepped) == params.n_steps
        assert set(pathways) == {(label, b) for label in ("Ex1", "Ex2") for b in range(2)}
        assert {(r.mass, r.experiment) for r in rows} == {(5.0, "Ex1"), (5.0, "Ex2")}
        assert [m for m, *_ in grid_run] == [10.0]
        assert len(stepped) == 2 * params.n_steps
        # the second mass's steps are heated twice as much as the first's
        assert max(stepped) > 0
        assert stepped[params.n_steps:] == [2 * aod for aod in stepped[:params.n_steps]]
        # the score tables are built once per run, before the grid, not per mass
        assert tabled == []

    def test_member_failure_keeps_exception_and_context(self, tiny_setup, monkeypatch):
        grid, params, _ = tiny_setup
        plan = ExperimentPlan(masses=(5.0,), n_members=2, baseline_members=2, seed=11)

        def failing_advance_tracers(self, state):
            raise NumericalFailureError("non-finite SO2", step_index=7)

        monkeypatch.setattr(harness.Stepper, "advance_tracers", failing_advance_tracers)
        with pytest.raises(NumericalFailureError) as info:
            list(run_experiment_grid(plan, params, grid, {}, EruptionSpec()))
        # every mass reads the one 1 Tg tracer run, which steps before any member
        assert info.value.step_index == 7
        assert str(info.value) == "1 Tg tracer run failed: non-finite SO2"


class TestStarts:
    def test_each_member_starts_once_per_ensemble(self, tiny_setup, monkeypatch):
        grid, params, eruption = tiny_setup
        started = []  # the longitudes of each state initialized
        monkeypatch.setattr(harness, "initialize",
                            lambda p, g, **k: started.append(g.nlon) or initialize(p, g, **k))
        plan = ExperimentPlan(masses=(5.0, 10.0), experiments=(("Ex1", 0.5, 0.75),),
                              n_members=3, baseline_members=3, seed=11)
        baselines = run_baseline_ensemble(plan, params, grid, eruption)
        assert started == [8] * 3
        tables = experiment_tables(plan, params.n_steps, baselines)
        list(run_experiment_grid(plan, params, grid, tables, eruption))
        # the 1 Tg tracer run on its one-column slab, then each member once for both masses
        assert started == [8] * 3 + [1] + [8] * 3

    def test_a_non_finite_start_names_its_member_and_the_first_mass(self, tiny_setup,
                                                                    monkeypatch):
        grid, params, eruption = tiny_setup
        started = []

        def poisoned(*args, **kwargs):
            started.append(initialize(*args, **kwargs))
            if len(started) == 3:  # after the tracer run's and member 0's, member 1's
                started[-1].temperature[:] = np.nan
            return started[-1]

        monkeypatch.setattr(harness, "initialize", poisoned)
        plan = ExperimentPlan(masses=(5.0, 10.0), n_members=3, baseline_members=3, seed=11)
        with pytest.raises(NumericalFailureError) as info:
            list(run_experiment_grid(plan, params, grid, {}, eruption))
        assert info.value.step_index == 0
        assert str(info.value) == (
            f"member 1 (mass 5.0 Tg, seed {derive_seed(11, 'eruption', 1).seed}) failed: "
            "non-finite QOI value for T(e) at step 0"
        )


def poison_tracers_at(monkeypatch, member, step):
    """Write a NaN into the SO4 of the member-th state initialized, before advance_tracers
    advances it to step.

    The NaN then fails the half's own finiteness check.
    """
    states = []

    def recording_initialize(*args, **kwargs):
        states.append(surrogate.initialize(*args, **kwargs))
        return states[-1]

    original = harness.Stepper.advance_tracers

    def poisoned(self, state):
        if state is states[member] and state.step_index + 1 == step:
            state.so4[0, 0, 0] = np.nan
        original(self, state)

    monkeypatch.setattr(harness, "initialize", recording_initialize)
    monkeypatch.setattr(harness.Stepper, "advance_tracers", poisoned)


def assert_matches_run_member(grid, params, eruption, n_members):
    """canonical_series against run_member, which steps the 3-D temperature, member by member.

    The tracer rows are the mass times a 1 Tg run's, so they agree with the
    direct run's to rounding: 1e-12 relative.  Each T row's step 0 comes from
    the same operations on the same state, so it is equal.  The T rows after
    step 0 are stepped as zone means, so they agree to rounding: 1e-12
    relative, with a floor of 1e-12 * noise_amp for temperatures near 0 K.
    """
    seeds = [derive_seed(4, "eruption", b) for b in range(n_members)]
    [(_, lockstep)] = canonical_series(params, eruption, grid, seeds, (eruption.mass,))
    assert len(lockstep) == n_members
    for series, seed in zip(lockstep, seeds):
        hook = TrackerHook(grid, registry_canonical(), params.n_steps, params.dt)
        expected = run_member(params, eruption, grid, seed, hook).series
        assert list(series) == list(expected)
        for qid in expected:
            if not qid.startswith("T("):
                np.testing.assert_allclose(series[qid], expected[qid], rtol=1e-12, atol=0,
                                           err_msg=qid)
                continue
            assert series[qid][0] == expected[qid][0], qid
            np.testing.assert_allclose(
                series[qid][1:], expected[qid][1:], rtol=1e-12, atol=1e-12 * params.noise_amp,
                err_msg=qid,
            )
    for qid in lockstep[0]:
        shared = not qid.startswith("T(")
        if n_members > 1:
            assert (lockstep[0][qid] is lockstep[-1][qid]) == shared, qid
        assert lockstep[0][qid].flags.writeable != shared, qid


class TestLockstep:
    @pytest.mark.parametrize("params, eruption", STEPPER_CASES)
    @pytest.mark.parametrize("n_members", [1, 2, 3])
    def test_equals_run_member_per_member(self, params, eruption, n_members):
        grid = build_grid(nlat=8, nlon=8, nlev=8, p_top=1.0, p_surface=1000.0)
        assert_matches_run_member(grid, params, eruption, n_members)

    @pytest.mark.parametrize("n_members", [1, 3])
    def test_partly_heated_zone_means_equal_run_member(self, n_members):
        # mid-levels 7.2, 19.6, ... hPa: the T-QOIs read 32.1-69.2 hPa, the
        # eruption heats 44.4 and 56.8 hPa, so half of each mean's level weight
        grid = build_grid(nlat=8, nlon=8, nlev=8, p_top=1.0, p_surface=100.0)
        eruption = EruptionSpec(mass=10.0, day=1.0, injection_levels=LevelRange(40.0, 60.0))
        levels = surrogate.injection_slice(grid, eruption)
        t_spec = registry_canonical()[-1]
        assert level_share(grid, t_spec, levels) == pytest.approx(0.5)
        assert_matches_run_member(grid, ModelParams(n_steps=60), eruption, n_members)

    def test_temperature_failure_names_its_member(self, tiny_setup, monkeypatch):
        grid, params, eruption = tiny_setup
        seeds = [derive_seed(4, "eruption", b) for b in range(3)]
        make_rng = harness.make_rng
        # {member: (step, first noise band)} at which members turn NaN: the first
        # step is named, then the first member and T-QOI at that step
        cases = [
            ({1: (5, 0), 2: (5, 0)}, 1, 5, "T(e)"),
            ({1: (5, 0), 2: (3, 2)}, 2, 3, "T(s)"),
        ]
        for poison, member, step, qid in cases:
            def poisoned_rng(seed, poison=poison):
                rng = make_rng(seed)
                at = poison.get(seed.member_index)
                return rng if at is None else NanDrawsFrom(rng, *at)

            monkeypatch.setattr(harness, "make_rng", poisoned_rng)
            with pytest.raises(NumericalFailureError) as info:
                list(canonical_series(params, eruption, grid, seeds, (eruption.mass,)))
            assert info.value.step_index == step
            assert str(info.value) == (
                f"member {member} (mass 10.0 Tg, seed {seeds[member].seed}) failed: "
                f"non-finite {qid} at step {step}"
            )

    def test_nan_draws_fail_a_3d_run_at_the_same_step(self, tiny_setup, monkeypatch):
        # a 3-D run draws one step's row per call; the poison still starts at step 5
        grid, params, eruption = tiny_setup
        make_rng = harness.make_rng
        monkeypatch.setattr(harness, "make_rng", lambda seed: NanDrawsFrom(make_rng(seed), 5))
        hook = TrackerHook(grid, [], params.n_steps, params.dt)
        with pytest.raises(NumericalFailureError) as info:
            run_member(params, eruption, grid, derive_seed(4, "eruption", 1), hook)
        assert info.value.step_index == 5
        assert str(info.value).endswith("failed: non-finite field values at step 5")

    def test_tracer_failure_names_the_unit_run(self, tiny_setup, monkeypatch):
        grid, params, eruption = tiny_setup
        poison_tracers_at(monkeypatch, member=0, step=12)
        with pytest.raises(NumericalFailureError) as info:
            tracer_unit_rows(params, eruption, grid)
        assert info.value.step_index == 12
        assert str(info.value) == (
            "1 Tg tracer run failed: non-finite field values at step 12"
        )

    # the overflow this test makes warns where it happens, as numpy does
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_scaled_overflow_names_mass_and_step_before_any_temperature_step(
        self, tiny_setup, monkeypatch
    ):
        grid, params, eruption = tiny_setup
        # AOD of order 1e10 at 1 Tg, so a mass still finite in kg overflows once scaled
        params = ModelParams(n_steps=40, k_aod=7.5e16)
        mass = 1e299
        huge = EruptionSpec(mass=mass, day=eruption.day)
        unit = tracer_unit_rows(params, huge, grid)
        assert np.isfinite(unit).all()
        overflow = ~np.isfinite(mass * unit)
        step = int(np.argmax(overflow.any(axis=0)))
        assert step > 0 and np.isfinite(mass * unit[:, :step]).all()
        qid = [s.id for s in registry_canonical()][int(np.argmax(overflow[:, step]))]
        stepped = []
        monkeypatch.setattr(harness.Stepper, "advance_zone_temperature",
                            lambda self, *a: stepped.append(a))
        seeds = [derive_seed(4, "eruption", b) for b in range(2)]
        with pytest.raises(NumericalFailureError) as info:
            list(canonical_series(params, huge, grid, seeds, (mass,)))
        assert stepped == []
        assert info.value.step_index == step
        assert str(info.value) == (
            f"mass {mass} Tg: {qid} of the scaled 1 Tg tracer run is non-finite at step {step}"
        )
        # a direct run at that mass overflows its AOD
        hook = TrackerHook(grid, registry_canonical(), params.n_steps, params.dt)
        with pytest.raises(NumericalFailureError, match="non-finite field values at step 9"):
            run_member(params, huge, grid, seeds[0], hook)


def activation_flips(grid, params, eruption, masses, n_members):
    """Each (mass, member, QOI, step) whose tau differs between the superposed and direct series.

    The superposed series are canonical_series' from the one 1 Tg tracer run;
    the direct ones are run_member's at the mass, with the 3-D temperature.
    Tracer rows are checked to 1e-12 relative on the way, and to exact zeros
    at mass 0.
    """
    plan = ExperimentPlan(n_members=n_members, baseline_members=2, seed=4)
    baselines = run_baseline_ensemble(plan, params, grid, eruption)
    base = base_dag_canonical()
    tables = score_tables(base, canonical_tests(0.5, 1.0), baselines, params.n_steps)
    seeds = [derive_seed(4, "eruption", b) for b in range(n_members)]
    flips = []
    for mass, superposed in canonical_series(params, eruption, grid, seeds, masses):
        at_mass = replace(eruption, mass=mass)
        for b, (series, seed) in enumerate(zip(superposed, seeds)):
            hook = TrackerHook(grid, registry_canonical(), params.n_steps, params.dt)
            direct = run_member(params, at_mass, grid, seed, hook).series
            for qid in direct:
                if qid.startswith("T("):
                    continue
                if mass == 0:
                    assert np.array_equal(series[qid], np.zeros(params.n_steps + 1)), qid
                np.testing.assert_allclose(series[qid], direct[qid], rtol=1e-12, atol=0,
                                           err_msg=f"{qid} at {mass} Tg")
            got = compute_pathway(base, series, tables, params.dt).activation
            want = compute_pathway(base, direct, tables, params.dt).activation
            flips += [(mass, b, base.vertices[v], int(m)) for m, v in zip(*np.nonzero(got != want))]
    return flips


class TestSuperposition:
    @pytest.mark.parametrize("params, eruption", STEPPER_CASES)
    def test_superposed_rows_and_taus_equal_direct_runs(self, params, eruption):
        grid = build_grid(nlat=8, nlon=8, nlev=8, p_top=1.0, p_surface=1000.0)
        flips = activation_flips(grid, params, eruption, (0.0, 0.5, 5.0, 20.0, 37.3), 2)
        assert flips == []

    def test_tracers_step_once_per_grid_and_never_for_the_baseline(
        self, tiny_setup, monkeypatch
    ):
        grid, params, _ = tiny_setup
        calls = []
        advance_tracers = harness.Stepper.advance_tracers

        def counted(self, state):
            calls.append(state.step_index)
            advance_tracers(self, state)

        monkeypatch.setattr(harness.Stepper, "advance_tracers", counted)
        plan = ExperimentPlan(masses=(5.0, 10.0), experiments=(("Ex1", 0.5, 0.75),),
                              n_members=2, baseline_members=3, seed=11)
        baselines = run_baseline_ensemble(plan, params, grid, EruptionSpec())
        assert calls == []
        tables = experiment_tables(plan, params.n_steps, baselines)
        list(run_experiment_grid(plan, params, grid, tables, EruptionSpec()))
        assert len(calls) == params.n_steps


def unit_rows_3d(params, eruption, grid):
    """Oracle: the 1 Tg tracer run's 12 tracer QOI rows, stepped on the whole 3-D grid."""
    specs = [s for s in registry_canonical() if s.field != "T"]
    hook = TrackerHook(grid, specs, params.n_steps, params.dt)
    run_member(params, replace(eruption, mass=1.0), grid, None, hook)
    return hook.series


def per_step_draw_t(params, eruption, grid, seeds, unit):
    """Oracle: the members' (B, 4, n_steps + 1) T-QOI rows, each step's normals drawn in a call
    of their own and its AR(1) stepped on its own, from the AOD rows of eruption.mass * unit."""
    specs = registry_canonical()
    tracer_ids = [s.id for s in specs if s.field != "T"]
    zone_t = RegistryEvaluator(grid, [s for s in specs if s.field == "T"])
    tracers = eruption.mass * unit
    zone_aod = tracers[[tracer_ids.index(f"AOD({s.zone})") for s in zone_t.specs]]
    stepper = Stepper(params, eruption, grid)
    rngs = [make_rng(seed) for seed in seeds]
    t = np.empty((len(seeds), len(zone_t.specs), params.n_steps + 1))
    band_noise = np.empty((len(seeds), N_NOISE_BANDS))
    for b, rng in enumerate(rngs):
        member = initialize(params, grid, rng=rng)
        t[b, :, 0] = zone_t.evaluate_state(member)
        band_noise[b] = member.band_noise
    shares = [level_share(grid, s, stepper.levels) for s in zone_t.specs]
    heated_aod = np.array(shares)[:, None] * zone_aod
    bands = np.array([zone_number(s.zone) for s in zone_t.specs])
    scale = params.noise_amp * np.sqrt(params.dt)
    for m in range(1, params.n_steps + 1):
        normals = np.array([rng.standard_normal(N_NOISE_BANDS) for rng in rngs])
        band_noise = params.noise_memory * band_noise + scale * normals
        t[:, :, m] = stepper.advance_zone_temperature(
            t[:, :, m - 1], heated_aod[:, m], band_noise[:, bands]
        )
    return t


DEFAULT_GRID = dict(nlat=32, nlon=64, nlev=16, p_top=1.0, p_surface=1000.0)


class TestSlab:
    @pytest.mark.parametrize(
        "params, eruption",
        [
            pytest.param(PRESET_PARAMS, EruptionSpec(), id="default"),
            # 210 days after the eruption, so that these cases stay cheap
            pytest.param(ModelParams(n_steps=1200), EruptionSpec(lat=-40.0), id="southern"),
            # the source is the last row, which has no northern neighbor: no transport
            pytest.param(ModelParams(n_steps=1200), EruptionSpec(lat=89.0),
                         id="source-in-last-row"),
            pytest.param(ModelParams(n_steps=1200, v_transport=0.0), EruptionSpec(),
                         id="no-v-transport"),
        ],
    )
    def test_unit_rows_equal_the_3d_run(self, params, eruption):
        grid = build_grid(**DEFAULT_GRID)
        unit = tracer_unit_rows(params, eruption, grid)
        expected = unit_rows_3d(params, eruption, grid)
        assert (expected[:, -1] > 0).any()
        np.testing.assert_allclose(unit, expected, rtol=1e-12, atol=0)

    def test_slab_conserves_sulfur(self, monkeypatch):
        # criterion 4 on the grid that tracer_unit_rows steps
        grids = []
        member = harness.run_member
        monkeypatch.setattr(harness, "run_member",
                            lambda p, e, grid, *a: grids.append(grid) or member(p, e, grid, *a))
        tracer_unit_rows(ModelParams(n_steps=1), EruptionSpec(), build_grid(**DEFAULT_GRID))
        (slab,) = grids
        params = replace(PRESET_PARAMS, tau_decay=None)
        eruption = EruptionSpec(mass=1.0)
        stepper = Stepper(params, eruption, slab)
        state = initialize(params, slab, rng=make_rng(derive_seed(0, "conservation", 0)))
        assert state.so2.shape == (32, 1, 16)
        worst = 0.0
        for _ in range(params.n_steps):
            stepper.advance_tracers(state)
            if state.time > eruption.day:
                err = abs(total_sulfur_kg(state, slab) - TG_TO_KG) / TG_TO_KG
                worst = max(worst, err)
        assert state.time > eruption.day
        assert worst < 1e-10

    @pytest.mark.parametrize("params, eruption", STEPPER_CASES)
    def test_one_draw_call_per_member_keeps_every_t_bit(self, params, eruption):
        grid = build_grid(nlat=8, nlon=8, nlev=8, p_top=1.0, p_surface=1000.0)
        seeds = [derive_seed(4, "eruption", b) for b in range(3)]
        unit = tracer_unit_rows(params, eruption, grid)
        expected = per_step_draw_t(params, eruption, grid, seeds, unit)
        [(_, series)] = canonical_series(params, eruption, grid, seeds, (eruption.mass,))
        t_ids = [s.id for s in registry_canonical() if s.field == "T"]
        for b, member in enumerate(series):
            for k, qid in enumerate(t_ids):
                assert np.array_equal(member[qid], expected[b, k]), (b, qid)


class TestBench:
    def test_synthetic_registry(self):
        specs = synthetic_registry(7)
        assert len(specs) == 7
        assert len({s.id for s in specs}) == 7
        assert all(s.field == "T" for s in specs)
        with pytest.raises(ConfigurationError):
            synthetic_registry(0)

    def test_overhead_rows(self, tiny_setup):
        grid, params, _ = tiny_setup
        rows = bench_overhead([1, 4], params, grid, repetitions=1, n_steps=3)
        assert [r.qoi_count for r in rows] == [1, 4]
        for r in rows:
            assert r.baseline_s_per_step > 0
            assert r.tracked_s_per_step > 0
            assert r.ratio == pytest.approx(r.tracked_s_per_step / r.baseline_s_per_step)

    def test_overhead_interleaves_counts_in_each_repetition(self, tiny_setup, monkeypatch):
        grid, params, _ = tiny_setup
        ran = []
        monkeypatch.setattr(harness, "run_member",
                            lambda *args: ran.append(len(args[-1].evaluator.specs)))
        rows = bench_overhead([7, 1, 4], params, grid, repetitions=3, n_steps=3)
        assert ran == [0] + [0, 7, 1, 4] * 3  # the warm-up, then every count once per repetition
        assert [r.qoi_count for r in rows] == [7, 1, 4]

    def test_overhead_spells_cannot_reorder_counts(self, tiny_setup, monkeypatch):
        clock = SimpleNamespace(now=0.0, perf_counter=lambda: clock.now)

        def run(*args):
            clock.now += next(durations)

        monkeypatch.setattr(harness, "time", clock)
        monkeypatch.setattr(harness, "run_member", run)
        grid, params, _ = tiny_setup
        default = build_parser().parse_args(["bench", "config.yaml"]).repetitions
        for repetitions in (9, default):
            # per-step times by repetition: hook-off, 7 QOIs, 35 QOIs
            times = [[1.0, 1.1, 1.2] for _ in range(repetitions)]
            times[2] = [2.0, 2.2, 2.4]  # a slow spell spanning a repetition cancels in its ratios
            times[3][1] *= 3  # a spell inside a repetition is trimmed, slow ...
            times[4][2] /= 2  # ... or fast
            durations = iter([1.0] + [t for rep in times for t in rep])
            rows = bench_overhead([7, 35], params, grid, repetitions=repetitions, n_steps=1)
            assert [r.ratio for r in rows] == pytest.approx([1.1, 1.2]), repetitions
            assert [r.baseline_s_per_step for r in rows] == pytest.approx([1.0, 1.0])
