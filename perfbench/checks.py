"""Correctness checks on what a workload process wrote; each check is one operation.

A failed check counts toward the run's `failed`.  The activation-day oracle
here recomputes summary.csv from the pathway JSON files read back with
volpath's own reader, with the arithmetic stats.ensemble_summarize documents
(mean, and sample std / sqrt(n)), so it holds for any seed.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np


class Checks:
    """Operations attempted and the messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path, skip: tuple[str, ...] = ()) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name not in skip):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _activation_days(activation: np.ndarray, dt: float, never: float):
    """Per-vertex (first active day, total active days) of one pathway."""
    out = []
    for column in activation.T:
        idx = np.flatnonzero(column)
        first = float(idx[0] * dt) if idx.size else never
        out.append((first, float(np.count_nonzero(column) * dt)))
    return out


def _mean_se(values: list[float]) -> tuple[str, str]:
    a = np.array(values)
    return repr(float(a.mean())), repr(float(a.std(ddof=1) / np.sqrt(a.size)))


def check_experiment(checks: Checks, out: Path, cfg, export) -> None:
    """summary.csv, pathway JSONs and DOT snapshots of one `volpath experiment` run.

    cfg is the run's parsed configuration; export is volpath.export.
    """
    plan, params = cfg.plan, cfg.params
    never = params.dt * params.n_steps
    if not checks.expect((out / "summary.csv").is_file(), f"{out}: no summary.csv"):
        return
    with open(out / "summary.csv", newline="") as fh:
        rows = {(r["mass_tg"], r["experiment"], r["qoi_id"]): r for r in csv.DictReader(fh)}

    first_label = plan.experiments[0][0]
    first_pathways = {}
    expected_rows = 0
    for mass in plan.masses:
        for label, _, _ in plan.experiments:
            days = []
            vertices = None
            for b in range(plan.n_members):
                path = out / "pathways" / f"pathway_m{mass:g}_{label}_b{b}.json"
                if not checks.expect(path.is_file(), f"missing {path.name}"):
                    continue
                pathway = export.read_pathway_json(path)
                shape_ok = pathway.activation.shape == (params.n_steps + 1, pathway.base.r)
                if not checks.expect(
                    shape_ok and pathway.dt == params.dt,
                    f"{path.name}: activation {pathway.activation.shape}, dt {pathway.dt}",
                ):
                    continue
                vertices = pathway.base.vertices
                days.append(_activation_days(pathway.activation, params.dt, never))
                if label == first_label and b == 0:
                    first_pathways[mass] = pathway
            if vertices is None or len(days) != plan.n_members:
                continue
            for v, qid in enumerate(vertices):
                expected_rows += 1
                row = rows.get((repr(float(mass)), label, qid))
                if not checks.expect(row is not None, f"summary.csv: no row {mass}/{label}/{qid}"):
                    continue
                mean_first, se_first = _mean_se([d[v][0] for d in days])
                mean_total, se_total = _mean_se([d[v][1] for d in days])
                got = (row["n_members"], row["mean_first_days"], row["se_first_days"],
                       row["mean_total_days"], row["se_total_days"])
                want = (str(plan.n_members), mean_first, se_first, mean_total, se_total)
                checks.expect(
                    got == want,
                    f"summary.csv {mass}/{label}/{qid}: {got} but pathways give {want}",
                )
    checks.expect(len(rows) == expected_rows, f"summary.csv has {len(rows)} rows, want {expected_rows}")

    for day in cfg.snapshot_days:
        for mass, pathway in first_pathways.items():
            path = out / "snapshots" / f"dag_m{mass:g}_{first_label}_day{day:g}.dot"
            checks.expect(
                path.is_file() and path.read_text() == export.export_dot(pathway, day),
                f"{path.name} does not render its pathway at day {day:g}",
            )


def check_hook(checks: Checks, out: Path, report: dict) -> None:
    """Merge the worker's own hook_scaling checks and check bench.csv."""
    checks.attempted += report["checks"]["attempted"]
    checks.failures += report["checks"]["failures"]
    path = out / "bench.csv"
    if checks.expect(path.is_file(), "no bench.csv"):
        with open(path, newline="") as fh:
            counts = [int(r["qoi_count"]) for r in csv.DictReader(fh)]
        checks.expect(
            counts == [int(c) for c in report["pass_seconds"] if c != "off"],
            f"bench.csv counts {counts}",
        )
