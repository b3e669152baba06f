"""Experiment configuration file parsing (YAML) and the run manifest."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigurationError, allocating, checked, distinct_names
from .grid import (
    LevelRange, SphericalGrid, ZONE_ORDER, build_grid, lat_row_index, level_mask, zone_of_rows,
)
from .harness import ExperimentPlan
from .pathway import step_at_day
from .qoi import registry_canonical
from .surrogate import (
    AIR_MASS_PER_HPA_KG,
    N_NOISE_BANDS,
    EruptionSpec,
    ModelParams,
    PRESET_ID,
    PRESET_PARAMS,
    injection_slice,
    transport_fraction,
)

CONVENTIONS = {
    "never_active_day": "run length in days (1200 for the default run)",
    "std_divisor": "n-1 (sample standard deviation, also used for standard error)",
    "threshold_tie_break": "inactive branch checked before active, both before hold",
    "zone_membership": "cell-center latitude, half-open [lat_min, lat_max), closed at 90",
}


@dataclass(frozen=True)
class ExperimentConfig:
    grid: dict
    params: ModelParams
    preset: str
    eruption: EruptionSpec
    plan: ExperimentPlan
    output_dir: str
    snapshot_days: tuple[float, ...] = ()

    def build_grid(self) -> SphericalGrid:
        return build_grid(**self.grid)


_KEYS = {
    "": ("grid", "surrogate", "eruption", "plan", "output_dir", "snapshot_days"),
    "grid": ("nlat", "nlon", "nlev", "p_top", "p_surface"),
    "surrogate": ("preset", "overrides"),
    "surrogate.overrides": tuple(ModelParams.__dataclass_fields__),
    "eruption": tuple(EruptionSpec.__dataclass_fields__),
    "plan": tuple(ExperimentPlan.__dataclass_fields__),
}


def _mapping(where: str, value) -> dict:
    """value as a mapping of the keys _KEYS allows at where; None means empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where or 'the configuration'} must be a mapping, got {value!r}")
    unknown = [f"{where}.{k}" if where else str(k) for k in value if k not in _KEYS[where]]
    if unknown:
        raise ConfigurationError(f"unknown keys: {', '.join(unknown)}")
    return value


def _real(where: str, value) -> float:
    """A finite number; numeric strings count, since YAML reads 1e-3 as a string."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = float("nan")
    if isinstance(value, bool) or not math.isfinite(number):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
    return number


def _integer(where: str, value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    return value


def _reals(where: str, value, count: int | None = None) -> tuple[float, ...]:
    if not isinstance(value, list) or count not in (None, len(value)):
        what = "a list" if count is None else f"a list of {count} numbers"
        raise ConfigurationError(f"{where} must be {what}, got {value!r}")
    return tuple(_real(f"{where}[{i}]", x) for i, x in enumerate(value))


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment configuration file; an empty file means the defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"configuration file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict | None) -> ExperimentConfig:
    """Validate raw YAML data; a bad value or unknown key raises naming section.key."""
    raw = _mapping("", raw)
    grid_raw = _mapping("grid", raw.get("grid"))
    grid = {
        "nlat": _integer("grid.nlat", grid_raw.get("nlat", 32)),
        "nlon": _integer("grid.nlon", grid_raw.get("nlon", 64)),
        "nlev": _integer("grid.nlev", grid_raw.get("nlev", 16)),
        "p_top": _real("grid.p_top", grid_raw.get("p_top", 1.0)),
        "p_surface": _real("grid.p_surface", grid_raw.get("p_surface", 1000.0)),
    }

    surrogate_raw = _mapping("surrogate", raw.get("surrogate"))
    preset = surrogate_raw.get("preset", PRESET_ID)
    if preset != PRESET_ID:
        raise ConfigurationError(f"surrogate.preset: unknown preset {preset!r}")
    overrides = dict(_mapping("surrogate.overrides", surrogate_raw.get("overrides")))
    for key, value in overrides.items():
        where = f"surrogate.overrides.{key}"
        kind = ModelParams.__dataclass_fields__[key].type
        if kind == "int":
            value = _integer(where, value)
        elif value is not None or "None" not in kind:
            number = _real(where, value)
            # a number stays as written: config_digest hashes it
            value = value if isinstance(value, (int, float)) else number
        # ModelParams checks each field on its own, so one override at a time finds the key
        checked(where, replace, PRESET_PARAMS, **{key: value})
        overrides[key] = value
    params = replace(PRESET_PARAMS, **overrides)

    eruption_raw = _mapping("eruption", raw.get("eruption"))
    defaults = EruptionSpec()
    levels = eruption_raw.get("injection_levels", list(astuple(defaults.injection_levels)))
    levels = _reals("eruption.injection_levels", levels, 2)
    mass = _real("eruption.mass", eruption_raw.get("mass", defaults.mass))
    checked("eruption.mass", replace, defaults, mass=mass)
    eruption = EruptionSpec(
        mass=mass,
        day=_real("eruption.day", eruption_raw.get("day", defaults.day)),
        lat=_real("eruption.lat", eruption_raw.get("lat", defaults.lat)),
        injection_levels=checked("eruption.injection_levels", LevelRange, *levels),
    )

    plan_raw = _mapping("plan", raw.get("plan"))
    defaults = ExperimentPlan()
    experiments = plan_raw.get("experiments", {e[0]: list(e[1:]) for e in defaults.experiments})
    if not isinstance(experiments, dict) or not experiments:
        raise ConfigurationError(
            f"plan.experiments must map labels to [T_l, T_u], got {experiments!r}"
        )
    plan = ExperimentPlan(
        masses=_reals("plan.masses", plan_raw.get("masses", list(defaults.masses))),
        experiments=tuple(
            (str(label), *_reals(f"plan.experiments.{label}", pair, 2))
            for label, pair in experiments.items()
        ),
        n_members=_integer("plan.n_members", plan_raw.get("n_members", defaults.n_members)),
        baseline_members=_integer(
            "plan.baseline_members", plan_raw.get("baseline_members", defaults.baseline_members)
        ),
        seed=_integer("plan.seed", plan_raw.get("seed", defaults.seed)),
    )

    # the grid and one 3-D field of a run
    shape = f"{grid['nlat']} x {grid['nlon']} x {grid['nlev']}"
    with allocating(f"grid: {shape} is too large to hold"):
        built = build_grid(**grid)
        np.empty((grid["nlat"], grid["nlon"], grid["nlev"]))
    with allocating(f"surrogate.overrides.n_steps: {params.n_steps} steps are too many to hold"):
        np.empty((len(registry_canonical()), params.n_steps + 1))
    members = max(plan.n_members, plan.baseline_members)
    key = "plan.n_members" if members == plan.n_members else "plan.baseline_members"
    with allocating(f"{key}: {members} members of {params.n_steps} steps are too many to hold"):
        np.empty((params.n_steps, members, N_NOISE_BANDS))
    # a Stepper's checks, made here so that they name their key before any run
    checked("surrogate.overrides.v_transport", transport_fraction, params, built)
    checked("eruption.lat", lat_row_index, built, eruption.lat)
    erupting = replace(eruption, mass=max((eruption.mass, *plan.masses)))
    checked("eruption.injection_levels", injection_slice, built, erupting)
    # RegistryEvaluator's checks on the canonical QOIs, made here so that they name their key
    zones = {ZONE_ORDER[i - 1] for i in zone_of_rows(built) if i}
    for spec in registry_canonical():
        if spec.zone not in zones:
            raise ConfigurationError(
                f"grid.nlat: zone {spec.zone!r} of {spec.id} holds none of the {built.nlat} rows"
            )
        if spec.level_range is not None and not level_mask(built, spec.level_range).any():
            raise ConfigurationError(
                f"grid.nlev: none of the {built.nlev} mid-levels lies in the "
                f"{spec.level_range.p_lo:g}-{spec.level_range.p_hi:g} hPa of {spec.id}"
            )

    snapshot_days = _reals("snapshot_days", raw.get("snapshot_days", []))
    # a day's {:g} form names its DOT snapshots, so two days must not share it
    distinct_names("snapshot_days", snapshot_days)
    for day in snapshot_days:
        # the step export_dot will look up
        try:
            step_at_day(day, params.dt, params.n_steps)
        except IndexError as exc:
            raise ConfigurationError(f"snapshot_days: {exc}") from None

    output_dir = raw.get("output_dir", "out")
    if not (isinstance(output_dir, str) and output_dir):
        raise ConfigurationError(f"output_dir must be a non-empty string, got {output_dir!r}")

    return ExperimentConfig(
        grid=grid,
        params=params,
        preset=preset,
        eruption=eruption,
        plan=plan,
        output_dir=output_dir,
        snapshot_days=snapshot_days,
    )


def config_digest(cfg: ExperimentConfig) -> str:
    """Stable digest over the configuration's canonical JSON form, output_dir aside."""
    payload = asdict(cfg)
    del payload["output_dir"]
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_manifest(cfg: ExperimentConfig, seeds: dict | None = None) -> dict:
    """Run manifest: versions, digest, seeds, conventions.

    Deliberately timestamp-free so repeated runs produce identical artifacts;
    re-run provenance lives in the output directory, not the manifest.
    """
    return {
        "tool": "volpath",
        "version": __version__,
        "config_digest": config_digest(cfg),
        "surrogate_preset": cfg.preset,
        "plan_seed": cfg.plan.seed,
        "member_seeds": seeds or {},
        "air_mass_per_hpa_kg": AIR_MASS_PER_HPA_KG,
        "never_active_day": cfg.params.dt * cfg.params.n_steps,
        "conventions": CONVENTIONS,
    }
