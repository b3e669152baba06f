"""Surrogate eruption atmosphere: injection, chemistry, transport, AOD, heating.

The model advances a state (SO2, SO4, T, AOD) one step at a time:

  1. injection of an SO2 pulse at the eruption day,
  2. pointwise SO2 -> SO4 conversion and SO4 removal (exponential factors),
  3. conservative upwind poleward advection of both tracers in the
     stratospheric levels, with zero flux through the polar cap,
  4. AOD diagnosed from the column sulfate burden,
  5. temperature: AOD-driven stratospheric heating, Newtonian relaxation
     toward an equilibrium temperature, and AR(1) band noise.

1 fills the source row on the injection levels, 2 is pointwise and 3 moves
mass only north on those levels, so the tracers are exactly +0.0 outside the
plume, the rows from the source north on the injection levels, in a state
that initialize made and every step after.  A Stepper runs the step as two
halves and draws nothing.  advance_tracers does 1-4 on the plume alone (AOD is
0.0 south of it) and advances the clock; advance_temperature does 5 from the
state's AOD and a row of noise_path, the one AR(1), fed the normals that a run
draws.  Both halves check that the whole fields they wrote are finite.

Step 5's relaxation and heating are written twice in Stepper: on a 3-D field
(advance_temperature) and on zone means (advance_zone_temperature).  Every term
of 5 is linear in a normalized mean over cells that lie in one noise band, so
the means of an ensemble's members advance as their fields would, to rounding,
without any field; the noise does not read T, so one path serves every mass.

The tracer subsystem is linear in the injected mass, so an ensemble of mass
M reads M times one 1 Tg run's tracer QOIs (harness), and mass 0 steps none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalFailureError
from .grid import (
    LevelRange, SphericalGrid, STRATOSPHERE_RANGE, ZONE_ORDER, lat_row_index, level_mask,
    zone_of_rows,
)

# Column air-mass constant: kg of air per hPa of pressure thickness for the
# whole (unit-weight) sphere.  Recorded in run manifests; based on a total
# atmosphere mass of 5.1e18 kg over ~1000 hPa.
AIR_MASS_PER_HPA_KG = 5.1e15
TG_TO_KG = 1.0e9

# Noise bands: one per zone_of_rows number, so everything south of the
# canonical zones, then each zone.
N_NOISE_BANDS = len(ZONE_ORDER) + 1


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the surrogate (the forward model's parameter vector)."""

    tau_chem: float = 18.0  # days, SO2 -> SO4 e-folding
    tau_decay: float | None = 360.0  # days, SO4 removal e-folding (None disables removal)
    v_transport: float = 0.35  # deg/day poleward advection speed
    k_aod: float = 7.5e4  # AOD per (kg/kg * hPa) of column sulfate
    k_heat: float = 0.5  # K/day per unit AOD, stratospheric heating
    tau_relax: float = 40.0  # days, Newtonian relaxation time
    t_eq: float = 240.0  # K, equilibrium stratospheric temperature
    noise_amp: float = 0.0003  # K, AR(1) innovation amplitude scale
    noise_memory: float = 0.999  # AR(1) autocorrelation, in [0, 1)
    dt: float = 0.25  # days per step
    n_steps: int = 4800  # steps M; default run spans 1200 days

    def __post_init__(self):
        if self.tau_chem <= 0 or self.tau_relax <= 0 or self.dt <= 0:
            raise ConfigurationError("all timescales and dt must be positive")
        if self.tau_decay is not None and self.tau_decay <= 0:
            raise ConfigurationError("tau_decay must be positive or None")
        if not 0.0 <= self.noise_memory < 1.0:
            raise ConfigurationError("noise_memory must lie in [0, 1)")
        if self.v_transport < 0:
            raise ConfigurationError("v_transport must be nonnegative")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")


#: Frozen default parameter set used by the experiment protocol.
PRESET_ID = "hswv-surrogate-v1"
PRESET_PARAMS = ModelParams()


@dataclass(frozen=True)
class EruptionSpec:
    """Eruption forcing: SO2 mass (Tg), injection day, latitude, level range."""

    mass: float = 10.0
    day: float = 90.0
    lat: float = 15.1
    injection_levels: LevelRange = STRATOSPHERE_RANGE

    def __post_init__(self):
        # the injection works in kg, which overflow above about 1.8e299 Tg
        if not (np.isfinite(self.mass * TG_TO_KG) and self.mass >= 0):
            raise ConfigurationError(
                f"eruption mass must be a finite number >= 0, also in kg, got {self.mass}"
            )


@dataclass(frozen=True)
class RunSeed:
    """Identifies one run's pseudo-random stream."""

    seed: int
    member_index: int = 0


@dataclass
class ModelState:
    """Per-step model state; one instance is owned by one run."""

    so2: np.ndarray  # (nlat, nlon, nlev) kg/kg
    so4: np.ndarray  # (nlat, nlon, nlev) kg/kg
    temperature: np.ndarray  # (nlat, nlon, nlev) K
    aod: np.ndarray  # (nlat, nlon) dimensionless
    step_index: int
    time: float  # days
    band_noise: np.ndarray  # (N_NOISE_BANDS,) AR(1) state of each noise band


def make_rng(seed: RunSeed) -> np.random.Generator:
    """The run's random stream; fully determined by (seed, member_index)."""
    return np.random.default_rng([seed.seed & (2**64 - 1), seed.member_index])


def initialize(params: ModelParams, grid: SphericalGrid, rng: np.random.Generator) -> ModelState:
    """Zero tracers and AOD; temperature = t_eq plus a small seeded perturbation.

    The perturbation is drawn from the run's rng, which then goes on to drive
    the stepping noise, so a run uses one stream.
    """
    shape3 = (grid.nlat, grid.nlon, grid.nlev)
    perturb = params.noise_amp * 0.01 * rng.standard_normal(shape3)
    # Start the band noise from its stationary distribution so runs begin in
    # statistical equilibrium rather than spinning variability up from zero.
    stationary_sd = params.noise_amp * np.sqrt(params.dt / (1.0 - params.noise_memory**2))
    band_noise = stationary_sd * rng.standard_normal(N_NOISE_BANDS)
    return ModelState(
        so2=np.zeros(shape3),
        so4=np.zeros(shape3),
        temperature=np.full(shape3, params.t_eq) + perturb,
        aod=np.zeros((grid.nlat, grid.nlon)),
        step_index=0,
        time=0.0,
        band_noise=band_noise,
    )


def injection_slice(grid: SphericalGrid, eruption: EruptionSpec) -> slice:
    """The levels eruption injects into; raises if it has mass and selects none."""
    levels = np.flatnonzero(level_mask(grid, eruption.injection_levels))
    if eruption.mass > 0.0 and not levels.size:
        raise ConfigurationError("injection selection is empty")
    # level_mask selects a pressure interval, so its levels are contiguous
    return slice(levels[0], levels[-1] + 1) if levels.size else slice(0, 0)


def transport_fraction(params: ModelParams, grid: SphericalGrid) -> float:
    """The share of a cell's tracer mass moved north per step; raises if it exceeds 1 (CFL)."""
    frac = params.v_transport * params.dt / grid.dlat
    if frac > 1.0:
        raise ConfigurationError(
            f"transport CFL fraction {frac:.4g} > 1 at dt {params.dt} on grid.nlat "
            f"{grid.nlat}; reduce dt or v_transport, or use fewer rows"
        )
    return frac


class Stepper:
    """Advances the states of one run in place.

    Everything that does not change from step to step is computed once, when
    the stepper is built: the injection level slice, the source row, the
    plume, the injection mixing ratio, the chemistry and removal factors, the
    plume's transport weights, the rows of each noise band and a scratch
    buffer.  A state's tracers must be +0.0 outside the plume, as the module
    docstring says every run's are.  Building raises the transport CFL error
    and the empty-injection error before any step runs.
    """

    def __init__(self, params: ModelParams, eruption: EruptionSpec, grid: SphericalGrid):
        self.params = params
        self.eruption = eruption
        dt = params.dt
        self.levels = injection_slice(grid, eruption)
        self.i_src = lat_row_index(grid, eruption.lat)
        self.inject = 0.0
        if eruption.mass > 0.0:
            # a uniform mixing ratio over the source row and the injection
            # levels, so the injected mass distributes across levels as dp
            w_cells = grid.area_weight[self.i_src].sum()
            denom = w_cells * grid.dp[self.levels].sum() * AIR_MASS_PER_HPA_KG
            self.inject = eruption.mass * TG_TO_KG / denom

        self.convert = 1.0 - np.exp(-dt / params.tau_chem)
        self.decay = None if params.tau_decay is None else np.exp(-dt / params.tau_decay)

        self.frac = transport_fraction(params, grid)
        self.transport = self.frac != 0.0 and self.i_src < grid.nlat - 1
        self.plume = (slice(self.i_src, None), slice(None), self.levels)
        self.w = grid.area_weight[self.i_src :, :, None] * grid.dp[self.levels][None, None, :]

        self.dp = grid.dp
        self.heat = dt * params.k_heat
        self.noise_scale = params.noise_amp * np.sqrt(dt)
        edges = np.searchsorted(zone_of_rows(grid), np.arange(N_NOISE_BANDS + 1)).tolist()
        self.band_rows = [slice(a, b) for a, b in zip(edges, edges[1:])]  # zones rise northward
        self.buf = np.empty((grid.nlat, grid.nlon, grid.nlev))

    def _advect_poleward(self, q: np.ndarray) -> None:
        """Conservative first-order upwind northward transport of one tracer's plume, in place.

        Moves a fraction frac of each donor cell's mass to its northern
        neighbor, for rows i_src..nlat-2 on the injection levels.  The polar
        row only receives; nothing leaves through the cap.
        """
        mass = q * self.w
        donor = self.frac * mass[:-1]
        mass[:-1] -= donor
        mass[1:] += donor
        np.divide(mass, self.w, out=q)

    def advance_tracers(self, state: ModelState) -> None:
        """Advance SO2, SO4 and AOD, then step index and time, by one step in place.

        The only code that advances the clock; the injection reads the time at
        the start of the step.  Draws no random numbers.
        """
        params, eruption = self.params, self.eruption
        so2, so4 = state.so2[self.plume], state.so4[self.plume]
        start = state.time
        state.step_index += 1
        state.time = start + params.dt

        # 1. injection into the plume's first row, the source row
        if eruption.mass > 0.0 and start <= eruption.day < start + params.dt:
            so2[0] += self.inject

        # 2. chemistry: exact exponential transfer, then SO4 removal
        transferred = so2 * self.convert
        so2 -= transferred
        so4 += transferred
        if self.decay is not None:
            so4 *= self.decay

        # 3. poleward transport north of the eruption latitude
        if self.transport:
            self._advect_poleward(so2)
            self._advect_poleward(so4)

        # 4. AOD from the column sulfate burden, of which there is none south of the source
        nlat, nlon, nlev = state.so4.shape
        state.aod = aod = np.zeros((nlat, nlon))
        column = np.dot(state.so4[self.i_src :].reshape(-1, nlev), self.dp)
        aod[self.i_src :] = params.k_aod * column.reshape(-1, nlon)

        if not np.isfinite(state.so2.sum() + state.so4.sum() + aod.sum()):
            raise self._non_finite(state)

    def noise_path(self, start: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Overwrite and return a run's normals (steps, ..., N_NOISE_BANDS) with the band noise
        after each step: row m - 1 becomes noise_memory * bn + noise_scale * row, where bn is
        the band noise after step m - 1, or start for m = 1."""
        bn = start
        for z in normals:
            z *= self.noise_scale
            bn = np.add(self.params.noise_memory * bn, z, out=z)
        return normals

    def advance_temperature(self, state: ModelState, noise: np.ndarray) -> None:
        """Advance temperature by one step in place, heated by state.aod, plus a noise_path row.

        Runs after advance_tracers, which advanced the clock; noise becomes state.band_noise.
        """
        params, buf, temp = self.params, self.buf, state.temperature

        # 5. temperature: relaxation dt * ((t_eq - T) / tau_relax), heating on
        # the plume (AOD is 0.0 south of it), band noise by each band's rows
        np.subtract(params.t_eq, temp, out=buf)
        np.divide(buf, params.tau_relax, out=buf)
        np.multiply(params.dt, buf, out=buf)
        temp += buf
        temp[self.plume] += self.heat * state.aod[self.i_src :, :, None]
        state.band_noise = noise
        for z, rows in enumerate(self.band_rows):
            temp[rows] += noise[z]

        if not np.isfinite(temp.sum()):
            raise self._non_finite(state)

    def advance_zone_temperature(
        self, t: np.ndarray, heated_aod: np.ndarray, noise: np.ndarray
    ) -> np.ndarray:
        """advance_temperature on zone means: the next (B, k) zone temperatures of B members.

        t (B, k) holds each member's normalized zone-mean temperatures, and each mean follows
        t + dt * ((t_eq - t) / tau_relax) + heat * h * AOD(z) + noise(z).  heated_aod (k,) is
        h * AOD(z): the zone's AOD mean times the share h of the mean's level weight that lies
        in self.levels.  noise (B, k) is a row of noise_path gathered to each zone's band.
        """
        params = self.params
        nxt = t + params.dt * ((params.t_eq - t) / params.tau_relax)
        nxt += self.heat * heated_aod
        nxt += noise
        return nxt

    @staticmethod
    def _non_finite(state: ModelState) -> NumericalFailureError:
        m = state.step_index
        return NumericalFailureError(f"non-finite field values at step {m}", step_index=m)


def step(
    state: ModelState,
    params: ModelParams,
    eruption: EruptionSpec,
    grid: SphericalGrid,
    rng: np.random.Generator,
) -> ModelState:
    """Advance one step; returns a new state, the input is not modified.

    Builds a Stepper and draws one step's normals on every call; a run of many
    steps builds one, draws once and calls its two halves instead.
    """
    new = replace(state, so2=state.so2.copy(), so4=state.so4.copy(),
                  temperature=state.temperature.copy())
    stepper = Stepper(params, eruption, grid)
    stepper.advance_tracers(new)
    [noise] = stepper.noise_path(state.band_noise, rng.standard_normal((1, N_NOISE_BANDS)))
    stepper.advance_temperature(new, noise)
    return new
