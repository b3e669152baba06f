"""Base-DAG, hysteresis bounds tests, and the pathway-DAG activation algorithm.

A bounds test classifies one QOI per step as active (1) or inactive (0) with a
hold band between its lower and upper thresholds; the per-step active vertex
sets induce subgraphs of the static base-DAG, recorded as an activation matrix.
The QOI series are extracted in situ; `compute_pathway` builds the matrix from
the recorded series, running every test type through one vectorized kernel,
`hysteresis`.  `score_tables` builds an experiment's thresholds and the
baseline mean and sigma of its z-scored columns alone, once per run, and is
the one check of a baseline against the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .errors import ConfigurationError, DegenerateBaselineError
from .grid import ZONE_ORDER
from .qoi import FIELD_NAMES, registry_canonical

# Absolute hysteresis thresholds (lower, upper) of the tracer fields, in field
# units; the QOIs of every other field are z-scored.
ABSOLUTE_BOUNDS = {"SO2": (4.0e-10, 8.0e-10), "SUL": (4.0e-10, 8.0e-10), "AOD": (0.0075, 0.015)}


@dataclass(frozen=True)
class BaseDag:
    """Static hypothesis graph over QOI ids; validated acyclic on construction."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ConfigurationError("duplicate vertices in base DAG")
        if len(set(self.edges)) != len(self.edges):
            raise ConfigurationError("duplicate edges in base DAG")
        vs = set(self.vertices)
        sorter = TopologicalSorter()
        for a, b in self.edges:
            if a == b:
                raise ConfigurationError(f"self-loop at {a!r}")
            if a not in vs or b not in vs:
                raise ConfigurationError(f"edge ({a!r}, {b!r}) references unknown vertex")
            sorter.add(b, a)
        try:
            sorter.prepare()
        except CycleError:
            raise ConfigurationError("graph contains a cycle") from None

    @property
    def r(self) -> int:
        return len(self.vertices)


def base_dag_canonical() -> BaseDag:
    """16 vertices in registry order, 24 edges: per-zone chemistry chains, then poleward chains."""
    ids = {(s.field, s.zone): s.id for s in registry_canonical()}
    chemistry = [(ids[a, z], ids[b, z])
                 for z in ZONE_ORDER for a, b in zip(FIELD_NAMES, FIELD_NAMES[1:])]
    poleward = [(ids[f, a], ids[f, b])
                for f in FIELD_NAMES for a, b in zip(ZONE_ORDER, ZONE_ORDER[1:])]
    return BaseDag(vertices=tuple(ids.values()), edges=tuple(chemistry + poleward))


@dataclass(frozen=True)
class AbsoluteHysteresis:
    """Active above upper, inactive below lower, hold in the open band."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"absolute test requires lower < upper, got ({self.lower}, {self.upper})"
            )


@dataclass(frozen=True)
class ZScoreHysteresis:
    """Hysteresis on (value - mu_m) / sigma_m against baseline statistics.

    Forced inactive at m = 0.  sigma_m must be strictly positive for m > 0.
    """

    t_l: float
    t_u: float

    def __post_init__(self):
        if not (self.t_l <= self.t_u and self.t_u > 0):
            raise ConfigurationError(
                f"z-score test requires t_l <= t_u and t_u > 0, got ({self.t_l}, {self.t_u})"
            )


BoundsTest = AbsoluteHysteresis | ZScoreHysteresis


def hysteresis(scores: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Taus of k consecutive steps: (k, r) scores -> (k, r) bool.

    Per column l, a step is inactive when its score is <= lower[l], else
    active when >= upper[l], else it holds the previous tau (inactive before
    the first row).  At exact threshold equality the inactive branch is
    checked before the active branch, and both take priority over the hold
    branch; a NaN score holds.
    """
    off = scores <= lower
    on = scores >= upper
    on &= ~off
    k, r = scores.shape
    # 1 + index of the last decided step at or before each step; 0 = none yet
    last = np.arange(1, k + 1)[:, None] * (off | on)
    np.maximum.accumulate(last, axis=0, out=last)
    return np.concatenate((np.zeros((1, r), dtype=bool), on))[last, np.arange(r)]


@dataclass(frozen=True)
class PathwayDag:
    """Time-indexed activation record over a base-DAG.

    activation[m, l] is the tau of vertex l (in base vertex order) at step m.
    Individual step graphs are materialized on demand.
    """

    base: BaseDag
    activation: np.ndarray  # (M+1, r) bool
    dt: float

    @property
    def n_steps(self) -> int:
        return self.activation.shape[0] - 1


def materialize_dag(
    pathway: PathwayDag, m: int
) -> tuple[list[str], list[tuple[str, str]]]:
    """The step-m subgraph: active vertices and the base edges with both endpoints active."""
    if not 0 <= m <= pathway.n_steps:
        raise IndexError(f"step {m} outside [0, {pathway.n_steps}]")
    base, taus = pathway.base, pathway.activation[m]
    if len(taus) != base.r:
        raise ConfigurationError(f"expected {base.r} taus, got {len(taus)}")
    active = {v for v, t in zip(base.vertices, taus) if t}
    v_m = [v for v in base.vertices if v in active]
    e_m = [e for e in base.edges if e[0] in active and e[1] in active]
    return v_m, e_m


def step_at_day(day: float, dt: float, n_steps: int) -> int:
    """The step nearest day; raises IndexError unless it lies in [0, n_steps]."""
    if not np.isfinite(day):
        raise IndexError(f"day {day} is not a finite number")
    # day / dt overflows to inf for days near the float maximum
    step = day / dt
    m = int(round(step)) if np.isfinite(step) else step
    if not 0 <= m <= n_steps:
        raise IndexError(f"day {day} maps to step {m}, outside [0, {n_steps}]")
    return m


def score_tables(
    base: BaseDag,
    tests: dict[str, BoundsTest],
    baselines: dict[str, "object"] | None,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Thresholds (r,) each, z-scored columns (k,), their mean and sigma (n_steps + 1, k) each.

    Every z-score baseline is checked against the run here: present,
    n_steps + 1 steps long, from at least two members, and sigma > 0 on steps
    1..n_steps.  With baselines None there is no baseline: z-score tests
    score the raw value against infinite thresholds, so they never activate.
    """
    missing = [v for v in base.vertices if v not in tests]
    if missing:
        raise ConfigurationError(f"no bounds test for vertices: {missing}")
    n = n_steps + 1
    lower = np.empty(base.r)
    upper = np.empty(base.r)
    zscored, means, stds = [], [], []
    for l, v in enumerate(base.vertices):
        test = tests[v]
        if isinstance(test, AbsoluteHysteresis):
            lower[l], upper[l] = test.lower, test.upper
        elif baselines is None:
            # any score but NaN is <= inf; NaN holds the initial 0
            lower[l] = upper[l] = np.inf
        else:
            lower[l], upper[l] = test.t_l, test.t_u
            if v not in baselines:
                raise ConfigurationError(f"z-score test for {v} has no baseline entry")
            bl = baselines[v]
            if bl.mean.size < n:
                raise ConfigurationError(
                    f"baseline for {v} has {bl.mean.size} steps, the run needs {n}"
                )
            zscored.append(l)
            means.append(bl.mean[:n])
            # std() raises unless the baseline has at least two members
            stds.append(bl.std()[:n])
    mean = np.array(means).reshape(-1, n).T
    std = np.array(stds).reshape(-1, n).T
    # step 0 is forced inactive, so its sigma is never checked or used
    std[:1] = 1.0
    bad = np.argwhere(std <= 0.0)
    if len(bad):
        m, l = bad[0]
        raise DegenerateBaselineError(
            f"baseline sigma for {base.vertices[zscored[l]]} is not positive at step {m}; "
            "z-score test is not well-defined"
        )
    return lower, upper, np.array(zscored, dtype=int), mean, std


def compute_pathway(
    base: BaseDag,
    series: dict[str, np.ndarray],
    tables: tuple[np.ndarray, ...],
    dt: float = 1.0,
) -> PathwayDag:
    """Run the activation algorithm over full recorded series (one per vertex).

    tables is score_tables' result, whose len(mean) steps every series has.
    Z-scored columns score (value - mean_m) / sigma_m against per-step
    baseline matrices and are forced inactive at m = 0; every other column
    scores the raw value.  One hysteresis call covers every vertex and step.
    """
    lower, upper, zscored, mean, std = tables
    missing = [v for v in base.vertices if v not in series]
    if missing:
        raise ConfigurationError(f"no series for vertices: {missing}")
    lengths = sorted({len(series[v]) for v in base.vertices})
    if lengths != [len(mean)]:
        raise ConfigurationError(f"series lengths {lengths} differ from the tables' {len(mean)}")
    scores = np.stack([np.asarray(series[v], dtype=float) for v in base.vertices], axis=1)
    scores[:, zscored] = (scores[:, zscored] - mean) / std
    scores[:1, zscored] = -np.inf
    return PathwayDag(base=base, activation=hysteresis(scores, lower, upper), dt=dt)


def canonical_tests(t_l: float, t_u: float) -> dict[str, BoundsTest]:
    """Absolute tracer tests plus z-score temperature tests for one experiment, by canonical id."""
    return {
        s.id: AbsoluteHysteresis(*ABSOLUTE_BOUNDS[s.field])
        if s.field in ABSOLUTE_BOUNDS
        else ZScoreHysteresis(t_l, t_u)
        for s in registry_canonical()
    }
