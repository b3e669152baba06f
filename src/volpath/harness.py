"""Experiment orchestration: member runs, baseline ensembles, the mass x
threshold grid, and the QOI-count overhead benchmark.

The bounds-test thresholds are analysis-side only, so each (mass, member)
trajectory is simulated once and every experiment's pathway is derived from
the same in-situ-extracted series.  run_lockstep is the one loop that
advances runs.  canonical_series records through it for simulate and the
ensembles.  The tracers draw no random numbers and are linear in the mass,
so every mass's 12 tracer rows are the mass times one 1 Tg run's (within
1e-12 relative of a direct run), a mass-0 ensemble takes no tracer step, and
each member steps its 4 T-QOIs in QOI space from those rows' AOD.
run_member, the paper's single-member in-situ path and the overhead
benchmark's, steps the whole state and shows it to the caller's hook.  Member
seeds are derived from the plan seed with a stable hash so any cell of the
grid can be reproduced alone.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalFailureError, checked
from .grid import SphericalGrid, zone_number
from .pathway import (
    PathwayDag, ZScoreHysteresis, base_dag_canonical, canonical_tests, compute_pathway,
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
        if min(self.masses, default=0.0) < 0:
            raise ConfigurationError(f"plan.masses must be >= 0, got {list(self.masses)}")
        # a mass's {:g} form names its output files and manifest seed keys
        if len({f"{mass:g}" for mass in self.masses}) < len(self.masses):
            raise ConfigurationError(
                f"plan.masses must differ in the {{:g}} form that names output files, "
                f"got {list(self.masses)}"
            )
        for label, t_l, t_u in self.experiments:
            where = f"plan.experiments.{label}"
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

    def series_by_id(self) -> dict[str, np.ndarray]:
        return {qid: self.series[i] for i, qid in enumerate(self.evaluator.ids)}


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


def run_lockstep(
    params: ModelParams,
    eruption: EruptionSpec,
    grid: SphericalGrid,
    seeds: list[RunSeed],
    hook: TrackerHook | None,
    zone_t: RegistryEvaluator | None = None,
    zone_aod: np.ndarray | None = None,
) -> np.ndarray | None:
    """Step one eruption's runs together: the one loop that advances runs.

    Without zone_t, one state advances in place and hook observes it at steps
    0..n_steps: seeds' one member's whole state or, with no seeds, only the
    tracers, which draw no random numbers.  With zone_t, an evaluator of
    zone-mean temperatures, each member steps zone_t of its initial state in
    QOI space on its own rng, heated by zone_aod, the (k, n_steps + 1) AOD
    means of zone_t's k zones, and the (members, k, n_steps + 1) series is
    returned.  A failure names the member, mass and seed, or the tracer run.
    """
    stepper = Stepper(params, eruption, grid)
    rngs = [make_rng(seed) for seed in seeds]
    b = 0  # the member in hand, which a failure names
    try:
        t = None
        if zone_t is None:
            # a tracer run draws nothing after initialize, so its seed is immaterial
            state = initialize(params, grid, rng=rngs[0] if seeds else make_rng(RunSeed(0)))
            hook.observe(state)
        else:
            t = np.empty((len(seeds), len(zone_t.specs), params.n_steps + 1))
            band_noise = np.empty((len(seeds), N_NOISE_BANDS))
            normals = np.empty_like(band_noise)
            for b, rng in enumerate(rngs):
                member = initialize(params, grid, rng=rng)
                t[b, :, 0] = zone_t.evaluate_state(member)
                band_noise[b] = member.band_noise
            shares = [level_share(grid, s, stepper.levels) for s in zone_t.specs]
            heated_aod = np.array(shares)[:, None] * zone_aod
            bands = np.array([zone_number(s.zone) for s in zone_t.specs])
        for m in range(1, params.n_steps + 1):
            if t is None:
                stepper.advance_tracers(state)
                if seeds:
                    stepper.advance_temperature(state, state.aod, rngs[0])
                else:  # advance_temperature's clock, which the injection day reads
                    state.step_index, state.time = m, state.time + params.dt
                hook.observe(state)
                continue
            for b, rng in enumerate(rngs):
                normals[b] = rng.standard_normal(N_NOISE_BANDS)
            t[:, :, m] = stepper.advance_zone_temperature(
                t[:, :, m - 1], band_noise, heated_aod[:, m], bands, normals
            )
            finite = np.isfinite(t[:, :, m]).all(axis=1)
            if not finite.all():
                b = int(np.argmin(finite))
                raise NumericalFailureError(f"non-finite field values at step {m}", step_index=m)
    except Exception as exc:
        # the same object, so attributes such as step_index survive
        who = f"{eruption.mass:g} Tg tracer run"
        if seeds:
            seed = seeds[b]
            who = f"member {seed.member_index} (mass {eruption.mass} Tg, seed {seed.seed})"
        exc.args = (f"{who} failed: {exc}",)
        raise
    return t


def run_member(
    params: ModelParams,
    eruption: EruptionSpec,
    grid: SphericalGrid,
    seed: RunSeed,
    hook: TrackerHook,
) -> MemberResult:
    """One simulation with the in-situ hook called every step: a one-member run_lockstep."""
    run_lockstep(params, eruption, grid, [seed], hook)
    return MemberResult(series=hook.series_by_id())


def tracer_unit_rows(
    params: ModelParams, eruption: EruptionSpec, grid: SphericalGrid
) -> np.ndarray:
    """The 12 canonical tracer QOI rows, (12, n_steps + 1), of 1 Tg erupted at eruption's site.

    The site is the eruption's day, latitude and levels.  The tracers are
    linear in the mass, so mass M at the site has M times these rows.
    """
    specs = [s for s in registry_canonical() if s.field != "T"]
    hook = TrackerHook(grid, specs, params.n_steps, params.dt)
    run_lockstep(params, replace(eruption, mass=1.0), grid, [], hook)
    return hook.series


def canonical_series(
    params: ModelParams,
    eruption: EruptionSpec,
    grid: SphericalGrid,
    seeds: list[RunSeed],
    unit: np.ndarray | None,
) -> list[dict[str, np.ndarray]]:
    """The canonical QOI series of one eruption's members, stepped in lockstep.

    The 12 tracer rows are eruption.mass times unit, the tracer_unit_rows of
    the site (None at mass 0, whose rows are +0.0), and every member's series
    holds them as shared read-only views; rows that overflow raise first.
    Each member's 4 T-QOIs are stepped in QOI space from their AOD.  Both
    equal run_member's to rounding: within 1e-12 relative, or 1e-12 *
    noise_amp for T near 0 K (tests/test_harness.py).
    """
    specs = registry_canonical()
    tracer_specs = [s for s in specs if s.field != "T"]
    zone_t = RegistryEvaluator(grid, [s for s in specs if s.field == "T"])
    tracers = np.zeros((len(tracer_specs), params.n_steps + 1))
    if eruption.mass:
        tracers = eruption.mass * unit
    bad = ~np.isfinite(tracers)
    if bad.any():
        m = int(np.argmax(bad.any(axis=0)))
        qid = tracer_specs[int(np.argmax(bad[:, m]))].id
        why = f"{qid} of the scaled 1 Tg tracer run is non-finite at step {m}"
        raise NumericalFailureError(f"mass {eruption.mass} Tg: {why}", step_index=m)
    tracers.flags.writeable = False
    row = {(s.field, s.zone): i for i, s in enumerate(tracer_specs)}
    zone_aod = tracers[[row["AOD", s.zone] for s in zone_t.specs]]
    t = run_lockstep(params, eruption, grid, seeds, None, zone_t, zone_aod)
    shared = {s.id: values for s, values in zip(tracer_specs, tracers)}
    # the registry is field-major with T last, so each dict keeps registry order
    return [{**shared, **dict(zip(zone_t.ids, member))} for member in t]


def run_baseline_ensemble(
    plan: ExperimentPlan,
    params: ModelParams,
    grid: SphericalGrid,
    eruption_template: EruptionSpec,
) -> dict[str, BaselineStats]:
    """Eruption-free ensemble; per-step mean/std of the QOIs every experiment z-scores."""
    quiet = replace(eruption_template, mass=0.0)
    seeds = [derive_seed(plan.seed, "baseline", b) for b in range(plan.baseline_members)]
    # score_tables reads only the z-scored baselines, so only those are kept
    tests = canonical_tests(*plan.experiments[0][1:])
    zscored = [s.id for s in registry_canonical() if isinstance(tests[s.id], ZScoreHysteresis)]
    stats = {qid: BaselineStats(qid, params.n_steps) for qid in zscored}
    for series in canonical_series(params, quiet, grid, seeds, None):
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


@dataclass
class ExperimentResult:
    rows: list[SummaryRow]
    # (mass, experiment, member_index) -> PathwayDag
    pathways: dict[tuple[float, str, int], PathwayDag]
    member_seeds: dict[tuple[float, int], RunSeed]


def run_experiment_grid(
    plan: ExperimentPlan,
    params: ModelParams,
    grid: SphericalGrid,
    baselines: dict[str, BaselineStats],
    eruption_template: EruptionSpec,
) -> ExperimentResult:
    """Eruption ensembles at every mass, analyzed under every threshold experiment."""
    base = base_dag_canonical()
    never = params.dt * params.n_steps
    rows: list[SummaryRow] = []
    pathways: dict[tuple[float, str, int], PathwayDag] = {}
    member_seeds: dict[tuple[float, int], RunSeed] = {}
    # the one tracer run, before any mass, which every mass scales
    unit = tracer_unit_rows(params, eruption_template, grid) if any(plan.masses) else None
    for mass in plan.masses:
        seeds = [derive_seed(plan.seed, "eruption", b) for b in range(plan.n_members)]
        member_seeds.update(((mass, b), seed) for b, seed in enumerate(seeds))
        eruption = replace(eruption_template, mass=mass)
        per_member_series = canonical_series(params, eruption, grid, seeds, unit)
        for label, t_l, t_u in plan.experiments:
            tests = canonical_tests(t_l, t_u)
            summaries = []
            for b, series in enumerate(per_member_series):
                pathway = compute_pathway(base, series, tests, baselines, dt=params.dt)
                pathways[(mass, label, b)] = pathway
                summaries.append(activation_summaries(pathway, never))
            # (B, 2, r) -> first and total days, each (B, r)
            firsts, totals = np.array(summaries).swapaxes(0, 1)
            mean_first, se_first = ensemble_summarize(firsts)
            mean_total, se_total = ensemble_summarize(totals)
            for l, qid in enumerate(base.vertices):
                rows.append(
                    SummaryRow(
                        mass, label, qid, plan.n_members,
                        float(mean_first[l]), float(se_first[l]),
                        float(mean_total[l]), float(se_total[l]),
                    )
                )
    return ExperimentResult(rows=rows, pathways=pathways, member_seeds=member_seeds)


def synthetic_registry(count: int) -> list[QoiSpec]:
    """count copies of the zonal-average-of-vertical-integral QOI (the expensive kind)."""
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

    The hook-off pass runs a hook over no QOIs.  Each time covers the whole
    run_member call, member set-up included, divided by n_steps.
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
    baseline = np.mean([timed_run([]) for _ in range(repetitions)])
    rows = []
    for count in qoi_counts:
        specs = synthetic_registry(count)
        tracked = np.mean([timed_run(specs) for _ in range(repetitions)])
        rows.append(
            BenchRow(
                qoi_count=count,
                baseline_s_per_step=float(baseline),
                tracked_s_per_step=float(tracked),
                ratio=float(tracked / baseline),
            )
        )
    return rows
