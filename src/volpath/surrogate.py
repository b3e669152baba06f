"""Surrogate eruption atmosphere: injection, chemistry, transport, AOD, heating.

The model advances a state (SO2, SO4, T, AOD) one step at a time:

  1. injection of an SO2 pulse at the eruption day,
  2. pointwise SO2 -> SO4 conversion and SO4 removal (exponential factors),
  3. conservative upwind poleward advection of both tracers in the
     stratospheric levels, with zero flux through the polar cap,
  4. AOD diagnosed from the column sulfate burden,
  5. temperature: AOD-driven stratospheric heating, Newtonian relaxation
     toward an equilibrium temperature, and AR(1) band noise.

A Stepper runs the step as two halves.  advance_tracers does 1-4 and draws
no random numbers; advance_temperature does 5 from a given AOD with the
run's own random stream.  Members of an ensemble differ only in their seed,
so they can share one tracer half and step only their temperatures.

Step 5 is written twice, side by side in Stepper: advance_temperature on
every cell of a 3-D field, and advance_zone_temperature on zone means.  Every
term of 5 is linear in a normalized mean over cells that lie in one noise
band, so the means of an ensemble's members advance as their fields would,
to rounding, without any field.

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
        if not (np.isfinite(self.mass) and self.mass >= 0):
            raise ConfigurationError(
                f"eruption mass must be a finite number >= 0, got {self.mass}"
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
            f"transport CFL fraction {frac:.3f} > 1 at dt {params.dt} on grid.nlat "
            f"{grid.nlat}; reduce dt or v_transport, or use fewer rows"
        )
    return frac


class Stepper:
    """Advances the states of one run in place.

    Everything that does not change from step to step is computed once, when
    the stepper is built: the injection level slice, the source row, the
    injection mixing ratio, the chemistry and removal factors, the transport
    weights, the noise band of each row and a scratch buffer.  Building
    raises the transport CFL error and the empty-injection error before any
    step runs.
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
        self.w = grid.area_weight[:, :, None] * grid.dp[self.levels][None, None, :]

        self.dp = grid.dp
        self.heat = dt * params.k_heat
        self.noise_scale = params.noise_amp * np.sqrt(dt)
        self.bands = zone_of_rows(grid)
        self.buf = np.empty((grid.nlat, grid.nlon, grid.nlev))

    def _advect_poleward(self, f: np.ndarray) -> None:
        """Conservative first-order upwind northward transport of one tracer, in place.

        Moves a fraction frac of each donor cell's mass to its northern
        neighbor, for rows i_src..nlat-2 on the injection levels.  The polar
        row only receives; nothing leaves through the cap.
        """
        i = self.i_src
        q = f[:, :, self.levels]
        mass = q * self.w
        donor = self.frac * mass[i:-1]
        mass[i:-1] -= donor
        mass[i + 1 :] += donor
        np.divide(mass, self.w, out=q)

    def advance_tracers(self, state: ModelState) -> None:
        """Advance SO2, SO4 and AOD by one step in place; step index and time stay.

        Draws no random numbers, so runs that differ only in their seed share
        one tracer trajectory.
        """
        params, eruption = self.params, self.eruption
        so2, so4 = state.so2, state.so4

        # 1. injection
        if eruption.mass > 0.0 and state.time <= eruption.day < state.time + params.dt:
            so2[self.i_src, :, self.levels] += self.inject

        # 2. chemistry: exact exponential transfer, then SO4 removal
        transferred = np.multiply(so2, self.convert, out=self.buf)
        so2 -= transferred
        so4 += transferred
        if self.decay is not None:
            so4 *= self.decay

        # 3. poleward transport north of the eruption latitude
        if self.transport:
            self._advect_poleward(so2)
            self._advect_poleward(so4)

        # 4. AOD from the column sulfate burden
        state.aod = params.k_aod * np.tensordot(so4, self.dp, axes=([2], [0]))

        if not np.isfinite(so2.sum() + so4.sum() + state.aod.sum()):
            raise self._non_finite(state)

    def advance_temperature(
        self, state: ModelState, aod: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Advance temperature and band noise by one step in place, then step index and time.

        aod is the AOD that advance_tracers left for this step: state.aod, or
        that of another state on the same tracer trajectory.
        """
        params, buf, temp = self.params, self.buf, state.temperature
        dt = params.dt

        # 5. temperature: relaxation dt * ((t_eq - T) / tau_relax), heating in
        # the injection levels, band noise
        np.subtract(params.t_eq, temp, out=buf)
        np.divide(buf, params.tau_relax, out=buf)
        np.multiply(dt, buf, out=buf)
        temp += buf
        temp[:, :, self.levels] += self.heat * aod[:, :, None]
        innovations = self.noise_scale * rng.standard_normal(N_NOISE_BANDS)
        state.band_noise = params.noise_memory * state.band_noise + innovations
        temp += state.band_noise[self.bands][:, None, None]

        if not np.isfinite(temp.sum()):
            raise self._non_finite(state)
        state.step_index += 1
        state.time = state.time + dt

    def advance_zone_temperature(
        self,
        t: np.ndarray,
        band_noise: np.ndarray,
        heated_aod: np.ndarray,
        bands: np.ndarray,
        normals: np.ndarray,
    ) -> np.ndarray:
        """advance_temperature on zone means: the next (B, k) zone temperatures of B members.

        t (B, k) holds each member's normalized zone-mean temperatures, and each
        mean follows t + dt * ((t_eq - t) / tau_relax) + heat * h * AOD(z) +
        noise[band(z)].  heated_aod (k,) is h * AOD(z): the zone's AOD mean
        times the share h of the mean's level weight that lies in self.levels.
        bands (k,) is the noise band that holds each zone.  normals
        (B, N_NOISE_BANDS) are each member's draws for the step, and band_noise
        (B, N_NOISE_BANDS) advances in place with advance_temperature's
        operations, so its bits are those of the 3-D run.
        """
        params = self.params
        band_noise *= params.noise_memory
        band_noise += self.noise_scale * normals
        nxt = t + params.dt * ((params.t_eq - t) / params.tau_relax)
        nxt += self.heat * heated_aod
        nxt += band_noise[:, bands]
        return nxt

    @staticmethod
    def _non_finite(state: ModelState) -> NumericalFailureError:
        m_next = state.step_index + 1
        return NumericalFailureError(
            f"non-finite field values at step {m_next}", step_index=m_next
        )


def step(
    state: ModelState,
    params: ModelParams,
    eruption: EruptionSpec,
    grid: SphericalGrid,
    rng: np.random.Generator,
) -> ModelState:
    """Advance one step; returns a new state, the input is not modified.

    Builds a Stepper on every call; a run of many steps builds one and calls
    its two halves instead.
    """
    new = replace(
        state,
        so2=state.so2.copy(),
        so4=state.so4.copy(),
        temperature=state.temperature.copy(),
    )
    stepper = Stepper(params, eruption, grid)
    stepper.advance_tracers(new)
    stepper.advance_temperature(new, new.aod, rng)
    return new
