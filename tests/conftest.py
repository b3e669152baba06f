"""Shared fixtures: small grids and states for fast unit tests."""

import numpy as np
import pytest

from volpath.errors import ConfigurationError
from volpath.grid import LevelRange, build_grid
from volpath.pathway import compute_pathway, score_tables
from volpath.stats import BaselineStats
from volpath.surrogate import (
    AIR_MASS_PER_HPA_KG,
    EruptionSpec,
    ModelParams,
    ModelState,
    N_NOISE_BANDS,
)

#: (params, eruption) pairs that reach every branch of a step
STEPPER_CASES = [
    (ModelParams(n_steps=60), EruptionSpec(mass=10.0, day=2.0)),
    (ModelParams(n_steps=60), EruptionSpec(mass=0.0)),
    # fast relaxation toward 0 K: increments as large as the
    # temperatures, so a reordered relaxation changes their last bits
    (ModelParams(n_steps=60, t_eq=0.0, tau_relax=0.7, v_transport=2.0),
     EruptionSpec(mass=10.0, day=2.0)),
    (ModelParams(n_steps=60, tau_decay=None), EruptionSpec(mass=10.0, day=0.0)),
    (ModelParams(n_steps=60, v_transport=0.0), EruptionSpec(mass=10.0, day=1.0)),
    # the source row is the polar row, which has no northern neighbor
    (ModelParams(n_steps=60), EruptionSpec(mass=10.0, day=1.0, lat=89.0)),
    (ModelParams(n_steps=60), EruptionSpec(
        mass=10.0, day=1.0, lat=-40.0, injection_levels=LevelRange(20.0, 400.0))),
]


@pytest.fixture
def small_grid():
    """Coarse but fully featured grid: 8 lat rows, 8 lon columns, 8 levels."""
    return build_grid(nlat=8, nlon=8, nlev=8, p_top=1.0, p_surface=1000.0)


@pytest.fixture
def fast_params():
    """Short, cheap parameter set for stepping tests."""
    return ModelParams(n_steps=40)


def random_state(grid, rng, step_index=0):
    """A synthetic state with positive tracers and perturbed temperature."""
    shape3 = (grid.nlat, grid.nlon, grid.nlev)
    return ModelState(
        so2=rng.uniform(0.0, 1e-8, shape3),
        so4=rng.uniform(0.0, 1e-8, shape3),
        temperature=240.0 + rng.standard_normal(shape3),
        aod=rng.uniform(0.0, 0.1, (grid.nlat, grid.nlon)),
        step_index=step_index,
        time=step_index * 0.25,
        band_noise=np.zeros(N_NOISE_BANDS),
    )


class NanDrawsFrom:
    """A run's rng whose step draws turn NaN from noise band `band` of the row that
    drives step `step`.

    initialize draws twice (perturbation, band noise).  Every later draw is
    the step stream, N_NOISE_BANDS normals per step, whether a run draws one
    step's row per call or many steps' rows in one call, so the poison goes
    by position in that stream.
    """

    def __init__(self, rng, step, band=0):
        self.rng = rng
        self.init_calls_left = 2
        self.drawn = 0  # step-stream normals drawn so far
        self.first_nan = (step - 1) * N_NOISE_BANDS + band

    def standard_normal(self, *args, **kwargs):
        draws = self.rng.standard_normal(*args, **kwargs)
        if self.init_calls_left:
            self.init_calls_left -= 1
            return draws
        flat = draws.reshape(-1)  # a view, in draw order
        flat[max(self.first_nan - self.drawn, 0):] = np.nan
        self.drawn += flat.size
        return draws


def total_sulfur_kg(state, grid):
    """Oracle: global sulfur mass (SO2 + SO4) in kg."""
    col = np.tensordot(state.so2 + state.so4, grid.dp, axes=([2], [0]))
    return float((col * grid.area_weight).sum() * AIR_MASS_PER_HPA_KG)


def vertex_series(pathway, qoi_id):
    """One vertex's taus over steps 0..M: the activation column of qoi_id."""
    return pathway.activation[:, pathway.base.vertices.index(qoi_id)]


def pathway_from_tests(base, series, tests, baselines=None, dt=1.0):
    """compute_pathway over the score tables of tests, sized to the first series' steps."""
    n_steps = len(next(iter(series.values()))) - 1
    return compute_pathway(base, series, score_tables(base, tests, baselines, n_steps), dt)


def collect_grid(grid_run):
    """Summary rows and {(mass, experiment, member): PathwayDag} of a whole run_experiment_grid."""
    rows, pathways = [], {}
    for mass, by_cell, mass_rows in grid_run:
        rows += mass_rows
        pathways.update({(mass, *cell): pathway for cell, pathway in by_cell.items()})
    return rows, pathways


def stats_from_sigma(qoi_id, n, mean, sigma):
    """Baseline stats of n members with the given per-step mean and sample std.

    m2 = sigma**2 * (n - 1), so sigma comes back from std() to rounding, and
    exactly for powers of two.
    """
    m2 = np.asarray(sigma, dtype=float) ** 2 * (n - 1)
    return BaselineStats.from_arrays(qoi_id, n, mean, m2)


def baseline_merge(a, b):
    """Oracle: the Chan merge of two accumulators, as if their members ran sequentially."""
    if a.qoi_id != b.qoi_id:
        raise ConfigurationError(f"merging mismatched QOIs {a.qoi_id!r} and {b.qoi_id!r}")
    if a.mean.shape != b.mean.shape:
        raise ConfigurationError(f"{a.qoi_id}: merging mismatched step ranges")
    out = BaselineStats(a.qoi_id, a.mean.size - 1)
    n = a.n + b.n
    out.n = n
    if a.n == 0:
        out.mean = b.mean.copy()
        out.m2 = b.m2.copy()
    elif b.n == 0:
        out.mean = a.mean.copy()
        out.m2 = a.m2.copy()
    else:
        delta = b.mean - a.mean
        out.mean = a.mean + delta * (b.n / n)
        out.m2 = a.m2 + b.m2 + delta**2 * (a.n * b.n / n)
    return out


def criterion_line(n, title, passed):
    """One pass/fail line per acceptance criterion, shown in the terminal summary."""
    RESULTS[n] = (title, passed)


RESULTS: dict[int, tuple[str, bool]] = {}


def pytest_terminal_summary(terminalreporter):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(RESULTS):
        title, passed = RESULTS[n]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {n:2d} ({title}): {verdict}")
