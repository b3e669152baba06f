"""Experiment orchestration: member runs, baseline ensembles, the mass x
threshold grid, and the QOI-count overhead benchmark.

The bounds-test thresholds are analysis-side only, so each (mass, member)
trajectory is simulated once and every experiment's pathway is derived from
the same in-situ-extracted series, under score tables built once per
experiment (experiment_tables).  run_member, the paper's in-situ path, is
the one loop that steps a whole state (a member's, or the 1 Tg tracer run's)
and shows it to the caller's hook.  canonical_series records one ensemble at
every mass in one call: simulate's one member, the baseline or the
experiment grid's members.  The tracers draw no random numbers and are
linear in the mass, so every mass's 12 tracer rows are the mass times one
1 Tg run's (within 1e-12 relative of a direct run), a mass-0 ensemble takes
no tracer step, and each member, started once, steps its 4 T-QOIs in QOI
space from those rows' AOD.  Member seeds are derived from the plan seed
with a stable hash so any cell of the grid can be reproduced alone.
"""

from __future__ import annotations

import hashlib
import re
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalFailureError, checked, distinct_names, shown
from .grid import SphericalGrid, zone_number
from .pathway import (
    ABSOLUTE_BOUNDS, PathwayDag, ZScoreHysteresis, base_dag_canonical, canonical_tests,
    compute_pathway, score_tables,
)
from .qoi import QoiSpec, RegistryEvaluator, level_share, registry_canonical
from .stats import BaselineStats, ensemble_summarize, first_activation, total_active
from .surrogate import (
    N_NOISE_BANDS,
    EruptionSpec,
    ModelParams,
    RunSeed,
    Stepper,
    initialize,
    make_rng,
)

DEFAULT_EXPERIMENTS = (
    ("Ex1", 0.5, 0.75),
    ("Ex2", 0.5, 1.0),
    ("Ex3", 0.5, 1.5),
    ("Ex4", 0.5, 2.0),
)


def experiment_key(label: str) -> str:
    """plan.experiments.<label>, or raise, echoing it short, for a label over 64 characters:
    up to 64, every file name it goes into, mkstemp's temporaries too, fits in 255 bytes."""
    if len(label) > 64:
        raise ConfigurationError(f"plan.experiments: label {shown(label)} is over 64 characters")
    return f"plan.experiments.{label}"


@dataclass(frozen=True)
class ExperimentPlan:
    """The full protocol: eruption masses, threshold experiments, ensemble sizes."""

    masses: tuple[float, ...] = (5.0, 10.0, 20.0)
    experiments: tuple[tuple[str, float, float], ...] = DEFAULT_EXPERIMENTS
    n_members: int = 10
    baseline_members: int = 10
    seed: int = 20260964

    def __post_init__(self):
        if self.n_members < 2 or self.baseline_members < 2:
            raise ConfigurationError("plan.n_members and plan.baseline_members must be >= 2")
        for mass in self.masses:
            checked("plan.masses", EruptionSpec, mass)
        # a mass's {:g} form names its output files and manifest seed keys
        distinct_names("plan.masses", self.masses)
        for label, t_l, t_u in self.experiments:
            where = experiment_key(label)
            # a label goes into file names and into summary.csv's comma-separated rows
            if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
                raise ConfigurationError(f"{where}: a label must match [A-Za-z0-9_.-]+")
            checked(where, ZScoreHysteresis, t_l, t_u)


def derive_seed(plan_seed: int, role: str, member_index: int) -> RunSeed:
    """Stable member seed; independent of execution order and other cells.

    Eruption members share seeds across masses and experiments (the
    thresholds are analysis-side and the tracer forcing is monotone in mass),
    so cross-mass and cross-experiment comparisons use common random numbers.
    """
    key = f"{plan_seed}|{role}|{member_index}".encode()
    digest = hashlib.sha256(key).digest()
    return RunSeed(seed=int.from_bytes(digest[:8], "little"), member_index=member_index)


class TrackerHook:
    """In-situ observer invoked once per model step (and once at the initial state).

    Extracts the QOI vector via cached reductions into a (QOIs, n_steps + 1)
    series; pathways are built afterwards from that series by compute_pathway.
    No 3D field is ever retained.  dt is unused: it is kept only because
    perfbench's worker subclasses the hook and calls it as (grid, specs,
    n_steps, dt).
    """

    def __init__(self, grid: SphericalGrid, specs: list[QoiSpec], n_steps: int, dt: float):
        self.evaluator = RegistryEvaluator(grid, specs)
        self.series = np.zeros((len(specs), n_steps + 1))

    def observe(self, state) -> None:
        self.series[:, state.step_index] = self.evaluator.evaluate_state(state)


@dataclass
class MemberResult:
    series: dict[str, np.ndarray]


def activation_summaries(
    pathway: PathwayDag, never_value: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex (first active day, total active days), each (r,) in base vertex order."""
    return (
        first_activation(pathway.activation, pathway.dt, never_value),
        total_active(pathway.activation, pathway.dt),
    )


def _member(seed: RunSeed, mass: float) -> str:
    return f"member {seed.member_index} (mass {mass} Tg, seed {seed.seed})"


def run_member(
    params: ModelParams,
    eruption: EruptionSpec,
    grid: SphericalGrid,
    seed: RunSeed | None,
    hook: TrackerHook,
) -> MemberResult:
    """Step one state in place, shown to hook at steps 0..n_steps: the loop for whole states.

    The state is seed's member's or, with no seed, only the tracers, which
    draw no random numbers.  A failure names the member, mass and seed, or
    the tracer run.
    """
    stepper = Stepper(params, eruption, grid)
    # a tracer run draws nothing after initialize, so its seed is immaterial
    rng = make_rng(RunSeed(0) if seed is None else seed)
    try:
        state = initialize(params, grid, rng=rng)
        if seed is not None:  # one call draws the stream one call per step would
            normals = rng.standard_normal((params.n_steps, N_NOISE_BANDS))
            noise = stepper.noise_path(state.band_noise, normals)
        hook.observe(state)
        for m in range(params.n_steps):
            stepper.advance_tracers(state)
            if seed is not None:
                stepper.advance_temperature(state, noise[m])
            hook.observe(state)
    except Exception as exc:
        who = f"{eruption.mass:g} Tg tracer run" if seed is None else _member(seed, eruption.mass)
        # the same object, so attributes such as step_index survive
        exc.args = (f"{who} failed: {exc}",)
        raise
    return MemberResult(series=dict(zip(hook.evaluator.ids, hook.series)))


def tracer_unit_rows(
    params: ModelParams, eruption: EruptionSpec, grid: SphericalGrid
) -> np.ndarray:
    """The 12 canonical tracer QOI rows, (12, n_steps + 1), of 1 Tg erupted at eruption's site.

    The site is the eruption's day, latitude and levels.  The tracers are
    linear in the mass, so mass M at the site has M times these rows.  They
    are also the same in every longitude (the source fills its whole row,
    chemistry is pointwise, transport meridional, area weights uniform in
    longitude), so the run steps a one-column slab of grid.
    """
    specs = [s for s in registry_canonical() if s.field != "T"]
    slab = replace(grid, nlon=1, area_weight=grid.area_weight.sum(axis=1, keepdims=True))
    hook = TrackerHook(slab, specs, params.n_steps, params.dt)
    run_member(params, replace(eruption, mass=1.0), slab, None, hook)
    return hook.series


def canonical_series(
    params: ModelParams,
    eruption: EruptionSpec,
    grid: SphericalGrid,
    seeds: list[RunSeed],
    masses: tuple[float, ...],
) -> Iterator[tuple[float, list[dict[str, np.ndarray]]]]:
    """The canonical QOI series of seeds' members erupting each mass at eruption's site.

    Yields (mass, one series per member) for each mass in order, before the
    next mass steps.  A mass's 12 tracer rows are the mass times the site's
    tracer_unit_rows (+0.0 at mass 0), shared read-only by every member; rows
    that overflow raise first.  Members share seeds across masses, so each
    starts once, with one noise path, and each mass steps their 4 T-QOIs in
    QOI space from those starts.  Both equal run_member's to rounding: within
    1e-12 relative, or 1e-12 * noise_amp for T near 0 K (tests/test_harness.py).
    """
    if not masses:
        return
    specs = registry_canonical()
    tracer_specs = [s for s in specs if s.field != "T"]
    unit = tracer_unit_rows(params, eruption, grid) if any(masses) else None
    zone_t = RegistryEvaluator(grid, [s for s in specs if s.field == "T"])
    # every mass steps the same zone recurrence; built at mass 0 only if every mass is 0
    stepper = Stepper(params, replace(eruption, mass=max(masses)), grid)
    shares = np.array([level_share(grid, s, stepper.levels) for s in zone_t.specs])
    bands = np.array([zone_number(s.zone) for s in zone_t.specs])
    row = {(s.field, s.zone): i for i, s in enumerate(tracer_specs)}
    aod_rows = [row["AOD", s.zone] for s in zone_t.specs]
    t0 = np.empty((len(seeds), len(zone_t.specs)))
    band_noise0 = np.empty((len(seeds), N_NOISE_BANDS))
    normals = np.empty((params.n_steps, len(seeds), N_NOISE_BANDS))
    for b, seed in enumerate(seeds):
        rng = make_rng(seed)
        try:
            start = initialize(params, grid, rng=rng)
            t0[b] = zone_t.evaluate_state(start)
            band_noise0[b] = start.band_noise
            # one call yields the stream one call per step would: row m - 1 drives step m
            normals[:, b] = rng.standard_normal((params.n_steps, N_NOISE_BANDS))
        except Exception as exc:
            exc.args = (f"{_member(seed, masses[0])} failed: {exc}",)
            raise
    noise = stepper.noise_path(band_noise0, normals)[:, :, bands]  # every mass adds the same
    start = normals = None  # neither a 3-D field nor all bands' noise is held while masses step
    for mass in masses:
        tracers = mass * unit if mass else np.zeros((len(tracer_specs), params.n_steps + 1))
        bad = ~np.isfinite(tracers)
        if bad.any():
            m = int(np.argmax(bad.any(axis=0)))
            qid = tracer_specs[int(np.argmax(bad[:, m]))].id
            why = f"{qid} of the scaled 1 Tg tracer run is non-finite at step {m}"
            raise NumericalFailureError(f"mass {mass} Tg: {why}", step_index=m)
        tracers.flags.writeable = False
        heated_aod = shares[:, None] * tracers[aod_rows]
        t = np.empty((len(seeds), len(zone_t.specs), params.n_steps + 1))
        t[:, :, 0] = t0
        for m, bn in enumerate(noise, 1):
            t[:, :, m] = stepper.advance_zone_temperature(t[:, :, m - 1], heated_aod[:, m], bn)
        bad = ~np.isfinite(t)  # checked once, when finished: a non-finite T stays so
        if bad.any():
            m = int(np.argmax(bad.any(axis=(0, 1))))
            b = int(np.argmax(bad[:, :, m].any(axis=1)))
            why = f"failed: non-finite {zone_t.ids[int(np.argmax(bad[b, :, m]))]} at step {m}"
            raise NumericalFailureError(f"{_member(seeds[b], mass)} {why}", step_index=m)
        shared = {s.id: values for s, values in zip(tracer_specs, tracers)}
        # the registry is field-major with T last, so each dict keeps registry order
        yield mass, [{**shared, **dict(zip(zone_t.ids, member))} for member in t]


def run_baseline_ensemble(
    plan: ExperimentPlan,
    params: ModelParams,
    grid: SphericalGrid,
    eruption_template: EruptionSpec,
) -> dict[str, BaselineStats]:
    """Eruption-free ensemble; per-step mean/std of the QOIs every experiment z-scores."""
    seeds = [derive_seed(plan.seed, "baseline", b) for b in range(plan.baseline_members)]
    # score_tables reads only the z-scored baselines, so only those are kept
    zscored = [s.id for s in registry_canonical() if s.field not in ABSOLUTE_BOUNDS]
    stats = {qid: BaselineStats(qid, params.n_steps) for qid in zscored}
    [(_, members)] = canonical_series(params, eruption_template, grid, seeds, (0.0,))
    for series in members:
        for qid, st in stats.items():
            st.update(series[qid])
    return stats


@dataclass(frozen=True)
class SummaryRow:
    mass: float
    experiment: str
    qoi_id: str
    n_members: int
    mean_first: float
    se_first: float
    mean_total: float
    se_total: float


def experiment_tables(
    plan: ExperimentPlan, n_steps: int, baselines: dict[str, BaselineStats]
) -> dict[str, tuple[np.ndarray, ...]]:
    """Each experiment's score_tables by label, in plan order: the check of baselines."""
    base = base_dag_canonical()
    return {
        label: score_tables(base, canonical_tests(t_l, t_u), baselines, n_steps)
        for label, t_l, t_u in plan.experiments
    }


def run_experiment_grid(
    plan: ExperimentPlan,
    params: ModelParams,
    grid: SphericalGrid,
    tables: dict[str, tuple[np.ndarray, ...]],
    eruption_template: EruptionSpec,
) -> Iterator[tuple[float, dict[tuple[str, int], PathwayDag], list[SummaryRow]]]:
    """Eruption ensembles at every mass, analyzed under each experiment's tables.

    tables is experiment_tables' result.  Yields (mass, {(experiment,
    member_index): PathwayDag}, summary rows) as each mass finishes, before
    the next mass is stepped.
    """
    base = base_dag_canonical()
    never = params.dt * params.n_steps
    seeds = [derive_seed(plan.seed, "eruption", b) for b in range(plan.n_members)]
    ensembles = canonical_series(params, eruption_template, grid, seeds, plan.masses)
    for mass, per_member_series in ensembles:
        pathways, rows = {}, []
        for label, table in tables.items():
            summaries = []
            for b, series in enumerate(per_member_series):
                pathways[label, b] = pathway = compute_pathway(base, series, table, params.dt)
                summaries.append(activation_summaries(pathway, never))
            # (B, 2, r) -> first and total days, each (B, r)
            firsts, totals = np.array(summaries).swapaxes(0, 1)
            mean_first, se_first = ensemble_summarize(firsts)
            mean_total, se_total = ensemble_summarize(totals)
            rows += [
                SummaryRow(mass, label, qid, plan.n_members, *map(float, stats))
                for qid, *stats in zip(base.vertices, mean_first, se_first, mean_total, se_total)
            ]
        yield mass, pathways, rows


def synthetic_registry(count: int) -> list[QoiSpec]:
    """count copies of the zonal-average-of-vertical-integral QOI (the expensive kind), cycling
    through the 4 T reductions: an evaluator builds 4 weight spans and takes count products."""
    if count < 1:
        raise ConfigurationError("QOI count must be >= 1")
    canon = [s for s in registry_canonical() if s.field == "T"]
    templates = (canon[i % len(canon)] for i in range(count))
    return [replace(t, id=f"bench{i}:{t.id}") for i, t in enumerate(templates)]


@dataclass(frozen=True)
class BenchRow:
    qoi_count: int
    baseline_s_per_step: float
    tracked_s_per_step: float
    ratio: float


def bench_overhead(
    qoi_counts: list[int],
    params: ModelParams,
    grid: SphericalGrid,
    repetitions: int,
    n_steps: int,
) -> list[BenchRow]:
    """Per-step wall time of one run_member with the hook disabled vs enabled at each QOI count.

    The hook-off pass runs a hook over no QOIs.  Each time covers the whole run_member
    call, member set-up included, divided by n_steps.  Each repetition times the hook-off
    pass, then every count once.  A row's ratio is the mean of each repetition's count time
    over its hook-off time, less the lowest and highest quarter (rounded down) of them, so
    a slow spell of the host cancels or is dropped; its hook-off time is the same mean of the
    hook-off times, and its tracked time is their product.
    """
    eruption = EruptionSpec(mass=10.0, day=0.0)
    bench_params = replace(params, n_steps=n_steps)
    seed = RunSeed(seed=0, member_index=0)

    def timed_run(specs: list[QoiSpec]) -> float:
        hook = TrackerHook(grid, specs, n_steps, bench_params.dt)
        start = time.perf_counter()
        run_member(bench_params, eruption, grid, seed, hook)
        return (time.perf_counter() - start) / n_steps

    timed_run([])  # warm-up, so first-call costs do not land in the hook-off time
    registries = [[]] + [synthetic_registry(count) for count in qoi_counts]
    times = np.array([[timed_run(specs) for specs in registries] for _ in range(repetitions)])
    times[:, 1:] /= times[:, :1]
    k = repetitions // 4
    baseline, *ratios = np.sort(times, axis=0)[k:repetitions - k].mean(axis=0)
    return [BenchRow(count, float(baseline), float(ratio * baseline), float(ratio))
            for count, ratio in zip(qoi_counts, ratios)]
