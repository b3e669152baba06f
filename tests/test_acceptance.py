"""End-to-end acceptance suite.

Each test exercises one acceptance criterion and records a PASS/FAIL line
that is printed in the terminal summary.  The heavy fixtures (the full
default experiment grid, run twice for the determinism check) are module
scoped and shared.
"""

import functools
import time

import numpy as np
import pytest

from conftest import (
    baseline_merge, collect_grid, criterion_line, pathway_from_tests, stats_from_sigma,
    total_sulfur_kg, vertex_series,
)
from volpath.export import export_dot, pathway_to_dict, summary_csv_text
from volpath.grid import build_grid
from volpath.harness import (
    ExperimentPlan,
    TrackerHook,
    bench_overhead,
    derive_seed,
    experiment_tables,
    run_baseline_ensemble,
    run_experiment_grid,
    run_member,
)
from volpath.pathway import (
    ABSOLUTE_BOUNDS,
    AbsoluteHysteresis,
    BaseDag,
    ZScoreHysteresis,
    base_dag_canonical,
    canonical_tests,
    hysteresis,
    materialize_dag,
)
from volpath.qoi import registry_canonical
from volpath.stats import (
    BaselineStats,
    first_activation,
    total_active,
)
from volpath.surrogate import (
    EruptionSpec,
    ModelParams,
    PRESET_PARAMS,
    TG_TO_KG,
    initialize,
    make_rng,
    step,
)

NEVER = PRESET_PARAMS.dt * PRESET_PARAMS.n_steps  # 1200 days


def criterion(n, title):
    """Record one PASS/FAIL summary line for an acceptance test."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                criterion_line(n, title, passed=False)
                raise
            criterion_line(n, title, passed=True)

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def default_grid():
    return build_grid(nlat=32, nlon=64, nlev=16, p_top=1.0, p_surface=1000.0)


def run_full_grid(grid):
    plan = ExperimentPlan()
    baselines = run_baseline_ensemble(plan, PRESET_PARAMS, grid, EruptionSpec())
    tables = experiment_tables(plan, PRESET_PARAMS.n_steps, baselines)
    result = collect_grid(run_experiment_grid(plan, PRESET_PARAMS, grid, tables, EruptionSpec()))
    return plan, baselines, result


@pytest.fixture(scope="module")
def grid_run(default_grid):
    return run_full_grid(default_grid)


@pytest.fixture(scope="module")
def grid_run_repeat(default_grid):
    return run_full_grid(default_grid)


def summary_row(result, mass, experiment, qoi_id):
    rows, _ = result
    for row in rows:
        if (row.mass, row.experiment, row.qoi_id) == (mass, experiment, qoi_id):
            return row
    raise AssertionError(f"no summary row for {(mass, experiment, qoi_id)}")


@criterion(1, "bounds-test branch exactness and hold stability")
def test_criterion_01_bounds_test_exactness():
    start = time.perf_counter()

    def taus(scores, lower, upper, prev):
        # a deciding first row sets the previous tau; it is dropped from the result
        first = np.inf if prev else -np.inf
        scores = np.concatenate(([first], np.asarray(scores, dtype=float)))[:, None]
        return list(hysteresis(scores, np.array([lower]), np.array([upper]))[1:, 0].astype(int))

    # Every branch of the absolute tests at their exact thresholds.
    for lower, upper in ABSOLUTE_BOUNDS.values():
        mid = 0.5 * (lower + upper)
        for prev, value, expected in [
            (0, lower * 0.99, 0),
            (0, lower, 0),
            (0, mid, 0),
            (0, upper, 1),
            (0, upper * 1.01, 1),
            (1, mid, 1),
            (1, upper, 1),
            (1, lower, 0),
            (1, lower * 0.99, 0),
        ]:
            assert taus([value], lower, upper, prev) == [expected]

    # z-score branches: forced-inactive start, both thresholds, hold band.
    ztest = ZScoreHysteresis(t_l=0.5, t_u=1.0)
    mu, sigma = np.full(3, 5.0), np.full(3, 2.0)
    baselines = {"q": stats_from_sigma("q", 5, mu, sigma)}
    zbase = BaseDag(vertices=("q",), edges=())

    def ztaus(zs):
        values = mu + sigma * np.asarray(zs, dtype=float)
        pw = pathway_from_tests(zbase, {"q": values}, {"q": ztest}, baselines)
        return list(vertex_series(pw, "q").astype(int))

    assert ztaus([99.0, 99.0, 99.0]) == [0, 1, 1]  # m = 0 is always inactive
    for prev, z, expected in [
        (0, 0.4, 0),
        (0, 0.5, 0),
        (0, 0.75, 0),
        (0, 1.0, 1),
        (1, 0.75, 1),
        (1, 0.5, 0),
    ]:
        assert taus([z], ztest.t_l, ztest.t_u, prev) == [expected]
        # step 1 sets the previous tau, step 2 carries the tested z
        assert ztaus([0.0, 5.0 if prev else -5.0, z]) == [0, prev, expected]

    # In-band sequences of length >= 100 hold the previous state with no chatter.
    rng = np.random.default_rng(0)
    for lower, upper in (ABSOLUTE_BOUNDS["SO2"], ABSOLUTE_BOUNDS["AOD"]):
        band = rng.uniform(lower, upper, 120)
        band = band[(band > lower) & (band < upper)]
        assert len(band) >= 100
        for start_tau in (0, 1):
            assert taus(band, lower, upper, start_tau) == [start_tau] * len(band)

    assert time.perf_counter() - start < 1.0


@criterion(2, "pathway assembly equals brute-force set definitions")
def test_criterion_02_pathway_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(500):
        r = int(rng.integers(2, 21))
        vertices = tuple(f"v{i}" for i in range(r))
        edges = tuple(
            (f"v{i}", f"v{j}")
            for i in range(r)
            for j in range(i + 1, r)
            if rng.random() < 0.25
        )
        base = BaseDag(vertices=vertices, edges=edges)
        n = int(rng.integers(2, 61))
        tests, series, taus = {}, {}, {}
        for v in vertices:
            lo, hi = float(rng.uniform(0.2, 0.45)), float(rng.uniform(0.55, 0.8))
            tests[v] = AbsoluteHysteresis(lo, hi)
            series[v] = rng.random(n)
            # independent reference for the hysteresis recurrence
            ref, prev = [], 0
            for x in series[v]:
                if x <= lo:
                    prev = 0
                elif x >= hi:
                    prev = 1
                ref.append(prev)
            taus[v] = ref
        pw = pathway_from_tests(base, series, tests, dt=1.0)
        for m in range(n):
            active = {v for v in vertices if taus[v][m]}
            expected_v = [v for v in vertices if v in active]
            expected_e = [e for e in edges if e[0] in active and e[1] in active]
            assert materialize_dag(pw, m) == (expected_v, expected_e)
    assert time.perf_counter() - start < 10.0


@criterion(3, "streaming statistics match two-pass and index-scan oracles")
def test_criterion_03_statistics_oracle():
    rng = np.random.default_rng(3)
    length = 10_000
    for _ in range(100):
        n_members = int(rng.integers(2, 9))
        members = rng.standard_normal((n_members, length)) * rng.uniform(0.01, 100)
        streamed = BaselineStats("q", length - 1)
        for m in members:
            streamed.update(m)
        cut = int(rng.integers(1, n_members))
        a = BaselineStats("q", length - 1)
        b = BaselineStats("q", length - 1)
        for m in members[:cut]:
            a.update(m)
        for m in members[cut:]:
            b.update(m)
        merged = baseline_merge(a, b)
        mean2p = members.mean(axis=0)
        std2p = members.std(axis=0, ddof=1)
        for stats in (streamed, merged):
            assert np.allclose(stats.mean, mean2p, rtol=1e-12, atol=1e-13)
            if n_members >= 2:
                assert np.allclose(stats.std(), std2p, rtol=1e-12, atol=1e-13)

    for _ in range(100):
        taus = rng.random(200) < 0.05
        dt = float(rng.uniform(0.1, 1.0))
        hits = [m for m, t in enumerate(taus) if t]
        expected_first = hits[0] * dt if hits else NEVER
        assert first_activation(taus, dt, NEVER) == expected_first
        assert total_active(taus, dt) == len(hits) * dt


@criterion(4, "global sulfur conserved to 1e-10 with removal disabled")
def test_criterion_04_conservation(default_grid):
    start = time.perf_counter()
    params = ModelParams(tau_decay=None)
    eruption = EruptionSpec(mass=10.0, day=90.0)
    rng = make_rng(derive_seed(0, "conservation", 0))
    state = initialize(params, default_grid, rng=rng)
    expected = 10.0 * TG_TO_KG
    worst = 0.0
    for _ in range(params.n_steps):
        state = step(state, params, eruption, default_grid, rng)
        if state.time > eruption.day:
            err = abs(total_sulfur_kg(state, default_grid) - expected) / expected
            worst = max(worst, err)
    assert state.step_index == 4800
    assert worst < 1e-10
    assert time.perf_counter() - start < 30.0


@criterion(5, "eruption-free run has zero tracers and zero tracer activations")
def test_criterion_05_zero_tracer(default_grid, grid_run):
    _, baselines, _ = grid_run
    hook = TrackerHook(
        default_grid, registry_canonical(), PRESET_PARAMS.n_steps, PRESET_PARAMS.dt
    )
    seed = derive_seed(ExperimentPlan().seed, "eruption", 0)
    result = run_member(PRESET_PARAMS, EruptionSpec(mass=0.0), default_grid, seed, hook)
    pathway = pathway_from_tests(
        base_dag_canonical(), result.series, canonical_tests(0.5, 1.0), baselines,
        PRESET_PARAMS.dt,
    )
    for qid, series in result.series.items():
        if not qid.startswith("T("):
            assert np.all(series == 0.0), qid
    for qid in pathway.base.vertices:
        if not qid.startswith("T("):
            assert not vertex_series(pathway, qid).any(), qid


def assert_ordered_beyond_se(rows, attr, direction):
    """Consecutive means monotone (ties allowed); the end-to-end difference
    must exceed the sum of the two end standard errors."""
    means = [getattr(r, f"mean_{attr}") for r in rows]
    ses = [getattr(r, f"se_{attr}") for r in rows]
    sign = 1.0 if direction == "increasing" else -1.0
    for a, b in zip(means[:-1], means[1:]):
        assert sign * (b - a) >= 0.0, (attr, means)
    assert sign * (means[-1] - means[0]) > ses[0] + ses[-1], (attr, means, ses)


@criterion(6, "larger eruptions activate sooner and for longer")
def test_criterion_06_mass_monotonicity(grid_run):
    start = time.perf_counter()
    plan, _, result = grid_run
    for qid in ("SUL(e)", "AOD(e)", "T(e)"):
        rows = [summary_row(result, mass, "Ex2", qid) for mass in plan.masses]
        assert_ordered_beyond_se(rows, "first", "decreasing")
        assert_ordered_beyond_se(rows, "total", "increasing")
    assert time.perf_counter() - start < 600.0  # shared fixture keeps this trivial


def test_criterion_06_along_a_dense_mass_sweep():
    """Criterion 6 at every step of a 20-mass sweep, exactly, for every tracer QOI.

    Every mass scales the same 1 Tg tracer rows, and both the scaling and its
    rounding are monotone in the mass, so no standard error is needed.
    """
    start = time.perf_counter()
    grid = build_grid(nlat=16, nlon=8, nlev=8, p_top=1.0, p_surface=1000.0)
    params = ModelParams(n_steps=1200)
    masses = tuple(float(m) for m in np.linspace(1.0, 50.0, 20))
    plan = ExperimentPlan(masses=masses, experiments=(("Ex2", 0.5, 1.0),),
                          n_members=2, baseline_members=2, seed=6)
    eruption = EruptionSpec(day=2.0)
    baselines = run_baseline_ensemble(plan, params, grid, eruption)
    tables = experiment_tables(plan, params.n_steps, baselines)
    result = collect_grid(run_experiment_grid(plan, params, grid, tables, eruption))
    tracers = [s.id for s in registry_canonical() if s.field != "T"]
    for qid in tracers:
        rows = [summary_row(result, mass, "Ex2", qid) for mass in masses]
        firsts = [r.mean_first for r in rows]
        totals = [r.mean_total for r in rows]
        assert firsts == sorted(firsts, reverse=True), (qid, firsts)
        assert totals == sorted(totals), (qid, totals)
    # the sweep crosses activation thresholds, so the orderings are not vacuous
    moved = [qid for qid in tracers
             if summary_row(result, 1.0, "Ex2", qid).mean_first
             > summary_row(result, 50.0, "Ex2", qid).mean_first]
    assert len(moved) >= 6, moved
    assert time.perf_counter() - start < 5.0


@criterion(7, "smaller upper thresholds activate temperature sooner and longer")
def test_criterion_07_threshold_sensitivity(grid_run):
    plan, _, result = grid_run
    _, pathways = result
    labels = [e[0] for e in plan.experiments]
    for zone in ("e", "s", "t", "p"):
        qid = f"T({zone})"
        rows = [summary_row(result, 10.0, label, qid) for label in labels]
        if all(r.mean_first >= NEVER for r in rows):
            continue  # temperature never activates in this zone
        firsts = [r.mean_first for r in rows]
        totals = [r.mean_total for r in rows]
        assert firsts == sorted(firsts), (qid, firsts)
        assert totals == sorted(totals, reverse=True), (qid, totals)
        # Pointwise dominance: a smaller upper threshold yields a superset of
        # active steps in every member.
        for b in range(plan.n_members):
            for tighter, looser in zip(labels[:-1], labels[1:]):
                tau_small = vertex_series(pathways[(10.0, tighter, b)], qid)
                tau_large = vertex_series(pathways[(10.0, looser, b)], qid)
                assert np.all(tau_small >= tau_large), (qid, b, tighter, looser)


@criterion(8, "activation wave travels equator to pole; snapshots match")
def test_criterion_08_activation_wave(grid_run):
    plan, _, (_, pathways) = grid_run
    dt = PRESET_PARAMS.dt
    for b in range(plan.n_members):
        pw = pathways[(10.0, "Ex2", b)]
        for field in ("SUL", "AOD"):
            firsts = [
                first_activation(vertex_series(pw, f"{field}({z})"), dt, NEVER)
                for z in ("e", "s", "t", "p")
            ]
            if all(f < NEVER for f in firsts):
                assert firsts == sorted(firsts), (field, b, firsts)

    # Snapshots: pre-eruption graph is empty; post-eruption graph shows the
    # active equatorial chain.
    pw = pathways[(10.0, "Ex2", 1)]
    pre = export_dot(pw, day=30.0)
    assert "orange" not in pre
    post = export_dot(pw, day=100.0)
    for v in ("SO2(e)", "SUL(e)", "AOD(e)"):
        assert f'"{v}" [style=filled, fillcolor=orange];' in post
    assert '"SO2(e)" -> "SUL(e)";' in post
    assert '"SUL(e)" -> "AOD(e)";' in post


@criterion(9, "polar SO2 rarely becomes active")
def test_criterion_09_so2_polar_rarity(grid_run):
    plan, _, (_, pathways) = grid_run
    dt = PRESET_PARAMS.dt
    never_count = sum(
        first_activation(
            vertex_series(pathways[(10.0, "Ex2", b)], "SO2(p)"), dt, NEVER
        )
        >= NEVER
        for b in range(plan.n_members)
    )
    assert never_count >= 8


@criterion(10, "tracking overhead grows with the number of tracked QOIs")
def test_criterion_10_overhead_scaling(default_grid):
    counts = [7, 35, 175, 875]
    rows = bench_overhead(counts, PRESET_PARAMS, default_grid, repetitions=9, n_steps=50)
    ratios = [r.ratio for r in rows]
    assert ratios == sorted(ratios), ratios
    extra = np.array([r.tracked_s_per_step - r.baseline_s_per_step for r in rows])
    slope = np.polyfit(counts, extra, 1)[0]
    assert slope >= 0.0, (slope, extra)


@criterion(11, "full experiment grid is byte-identical across reruns")
def test_criterion_11_determinism(grid_run, grid_run_repeat):
    _, baselines_a, (rows_a, pathways_a) = grid_run
    _, baselines_b, (rows_b, pathways_b) = grid_run_repeat
    assert summary_csv_text(rows_a) == summary_csv_text(rows_b)
    assert set(pathways_a) == set(pathways_b)
    for key in pathways_a:
        assert pathway_to_dict(pathways_a[key], "") == pathway_to_dict(pathways_b[key], "")
    for qid in baselines_a:
        assert np.array_equal(baselines_a[qid].mean, baselines_b[qid].mean)
        assert np.array_equal(baselines_a[qid].m2, baselines_b[qid].m2)
