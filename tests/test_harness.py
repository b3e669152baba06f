"""Experiment harness: seeds, member runs, ensembles, and the overhead bench."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import NanDrawsFrom, STEPPER_CASES
from volpath import harness, surrogate
from volpath.errors import ConfigurationError, NumericalFailureError
from volpath.grid import LevelRange, build_grid
from volpath.harness import (
    DEFAULT_EXPERIMENTS,
    ExperimentPlan,
    TrackerHook,
    bench_overhead,
    canonical_series,
    derive_seed,
    run_baseline_ensemble,
    run_experiment_grid,
    run_member,
    synthetic_registry,
    tracer_unit_rows,
)
from volpath.pathway import base_dag_canonical, canonical_tests, compute_pathway
from volpath.qoi import level_share, registry_canonical
from volpath.surrogate import EruptionSpec, ModelParams


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
        for series in canonical_series(params, EruptionSpec(mass=0.0), grid, seeds, None):
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
        a = run_experiment_grid(plan, params, grid, baselines, EruptionSpec())
        b = run_experiment_grid(plan, params, grid, baselines, EruptionSpec())
        assert len(a.rows) == 2 * 1 * 16
        assert set(a.pathways) == {
            (m, "Ex1", i) for m in (5.0, 10.0) for i in range(2)
        }
        assert a.rows == b.rows
        for key in a.pathways:
            assert np.array_equal(a.pathways[key].activation, b.pathways[key].activation)
        assert a.member_seeds == b.member_seeds
        # Common random numbers: the same member uses one seed at every mass.
        assert a.member_seeds[(5.0, 1)] == a.member_seeds[(10.0, 1)]

    def test_member_failure_keeps_exception_and_context(self, tiny_setup, monkeypatch):
        grid, params, _ = tiny_setup
        plan = ExperimentPlan(masses=(5.0,), n_members=2, baseline_members=2, seed=11)

        def failing_advance_tracers(self, state):
            raise NumericalFailureError("non-finite SO2", step_index=7)

        monkeypatch.setattr(harness.Stepper, "advance_tracers", failing_advance_tracers)
        with pytest.raises(NumericalFailureError) as info:
            run_experiment_grid(plan, params, grid, {}, EruptionSpec())
        # every mass reads the one 1 Tg tracer run, which steps before any member
        assert info.value.step_index == 7
        assert str(info.value) == "1 Tg tracer run failed: non-finite SO2"


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


def superposed_series(params, eruption, grid, seeds):
    """canonical_series as the commands call it: from the site's 1 Tg rows, none at mass 0."""
    unit = tracer_unit_rows(params, eruption, grid) if eruption.mass else None
    return canonical_series(params, eruption, grid, seeds, unit)


def assert_matches_run_member(grid, params, eruption, n_members):
    """canonical_series against run_member, which steps the 3-D temperature, member by member.

    The tracer rows are the mass times a 1 Tg run's, so they agree with the
    direct run's to rounding: 1e-12 relative.  Each T row's step 0 comes from
    the same operations on the same state, so it is equal.  The T rows after
    step 0 are stepped as zone means, so they agree to rounding: 1e-12
    relative, with a floor of 1e-12 * noise_amp for temperatures near 0 K.
    """
    seeds = [derive_seed(4, "eruption", b) for b in range(n_members)]
    lockstep = superposed_series(params, eruption, grid, seeds)
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

        def poisoned_rng(seed):
            # members 1 and 2 both fail at step 5; the first of them is named
            rng = make_rng(seed)
            return rng if seed.member_index == 0 else NanDrawsFrom(rng, step=5)

        monkeypatch.setattr(harness, "make_rng", poisoned_rng)
        with pytest.raises(NumericalFailureError) as info:
            superposed_series(params, eruption, grid, seeds)
        assert info.value.step_index == 5
        assert str(info.value) == (
            f"member 1 (mass 10.0 Tg, seed {seeds[1].seed}) failed: "
            "non-finite field values at step 5"
        )

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
        # AOD of order 10 at 1 Tg, so a huge mass overflows once scaled
        params = ModelParams(n_steps=40, k_aod=7.5e7)
        mass = 1e308
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
            canonical_series(params, huge, grid, seeds, unit)
        assert stepped == []
        assert info.value.step_index == step
        assert str(info.value) == (
            f"mass {mass} Tg: {qid} of the scaled 1 Tg tracer run is non-finite at step {step}"
        )
        # a direct run at that mass overflows its injected mixing ratio
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
    base, tests = base_dag_canonical(), canonical_tests(0.5, 1.0)
    seeds = [derive_seed(4, "eruption", b) for b in range(n_members)]
    unit = tracer_unit_rows(params, eruption, grid)
    flips = []
    for mass in masses:
        at_mass = replace(eruption, mass=mass)
        superposed = canonical_series(params, at_mass, grid, seeds, unit if mass else None)
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
            got = compute_pathway(base, series, tests, baselines, dt=params.dt).activation
            want = compute_pathway(base, direct, tests, baselines, dt=params.dt).activation
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
        run_experiment_grid(plan, params, grid, baselines, EruptionSpec())
        assert len(calls) == params.n_steps


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
