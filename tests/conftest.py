"""Shared fixtures: small grids and states for fast unit tests."""

import numpy as np
import pytest

from volpath.grid import LevelRange, build_grid
from volpath.surrogate import EruptionSpec, ModelParams, ModelState, N_NOISE_BANDS

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
