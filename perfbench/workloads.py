"""The benchmark's workloads: the volpath configuration each one generates from a seed.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in WORKLOADS.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from tracer import QOI_COUNTS

#: End-to-end metric names and units, in the order they are reported.
END_TO_END = {
    "wall_s": "s",
    "member_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "bytes",
}

#: Every workload process runs BLAS and OpenMP on one thread.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

DEFAULT_SEED = 0

#: Steps of each hook_scaling pass: enough that the 875-QOI pass dominates and
#: that one process makes over 1000 evaluate_state calls (a p99 with >= 10 beyond).
HOOK_STEPS = 200


def _ensemble_grid(seed: int) -> dict:
    return {
        "grid": {"nlat": 32, "nlon": 64, "nlev": 16},
        "surrogate": {"overrides": {"n_steps": 1200}},
        "eruption": {"mass": 10.0, "day": 90.0},
        "plan": {"masses": [5.0, 20.0], "n_members": 3, "baseline_members": 3, "seed": seed},
        "snapshot_days": [100.0],
    }


def _hook_scaling(seed: int) -> dict:
    # one member injecting at day 0, as `volpath bench` does
    return {
        "grid": {"nlat": 32, "nlon": 64, "nlev": 16},
        "surrogate": {"overrides": {"n_steps": HOOK_STEPS}},
        "eruption": {"mass": 10.0, "day": 0.0},
        "plan": {"masses": [10.0], "n_members": 2, "baseline_members": 2, "seed": seed},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> the volpath configuration; volpath sees nothing else
    config: Callable[[int], dict]
    #: "experiment": the timed process is `volpath experiment`;
    #: "hook": the timed process runs the QOI-count sweep through harness
    kind: str
    #: layers that must record calls in a traced run
    layers: tuple[str, ...]
    #: output file whose sha256 per seed is recorded in reference.json
    reference_file: str

    def member_steps(self, config: dict) -> int:
        """Model states one timed process produces (n_steps + 1 per trajectory)."""
        plan = config["plan"]
        states = config["surrogate"]["overrides"]["n_steps"] + 1
        if self.kind == "hook":
            # hook off twice (warm-up, timed), one pass per QOI count, one canonical pass
            return (len(QOI_COUNTS) + 3) * states
        members = len(plan["masses"]) * plan["n_members"] + plan["baseline_members"]
        return members * states


_PIPELINE = ("surrogate", "qoi", "pathway", "export", "stats", "harness", "config", "grid", "cli")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble_grid", _ensemble_grid, "experiment", _PIPELINE, "summary.csv"),
        Workload(
            "hook_scaling", _hook_scaling, "hook",
            ("surrogate", "qoi", "export", "harness", "config", "grid"),
            "series.csv",
        ),
    )
}
