"""Command-line front end: simulate, baseline, experiment, export-dot, bench.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.  Log
verbosity comes from the VOLPATH_LOG environment variable (DEBUG/INFO/...).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, build_manifest, config_digest, load_config
from .errors import ConfigurationError, VolpathError, allocating, checked
from .export import (
    atomic_write_text,
    export_dot,
    read_baselines_json,
    read_pathway_json,
    write_baselines_json,
    write_bench_csv,
    write_manifest_json,
    write_pathway_json,
    write_series_csv,
    write_summary_csv,
)
from .harness import (
    bench_overhead,
    canonical_series,
    derive_seed,
    experiment_tables,
    run_baseline_ensemble,
    run_experiment_grid,
)
from .pathway import base_dag_canonical, canonical_tests, compute_pathway, score_tables
from .surrogate import N_NOISE_BANDS

logger = logging.getLogger("volpath")


def _setup_logging() -> None:
    level = os.environ.get("VOLPATH_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.member < 0:
        raise ConfigurationError(f"--member must be >= 0, got {args.member}")
    cfg = load_config(args.config)
    if args.mass is not None:
        cfg = replace(cfg, eruption=checked("--mass", replace, cfg.eruption, mass=args.mass))
    if args.seed is not None:
        cfg = replace(cfg, plan=replace(cfg.plan, seed=args.seed))
    out = Path(args.out or cfg.output_dir)
    grid = cfg.build_grid()

    base = base_dag_canonical()
    tests = canonical_tests(*cfg.plan.experiments[0][1:])
    # no baseline: the z-score tests never activate
    baselines = read_baselines_json(args.baseline) if args.baseline else None
    # built before any step, so a bad baseline exits before the member runs
    tables = score_tables(base, tests, baselines, cfg.params.n_steps)
    seed = derive_seed(cfg.plan.seed, "eruption", args.member)
    [(_, [series])] = canonical_series(cfg.params, cfg.eruption, grid, [seed], (cfg.eruption.mass,))
    pathway = compute_pathway(base, series, tables, cfg.params.dt)

    digest = config_digest(cfg)
    write_series_csv(out / "series.csv", series, cfg.params.dt)
    write_pathway_json(out / "pathway.json", pathway, digest)
    manifest = build_manifest(cfg, seeds={"member": seed.seed})
    write_manifest_json(out / "manifest.json", manifest)
    logger.info("wrote series.csv, pathway.json, manifest.json to %s", out)
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = Path(args.out or cfg.output_dir)
    grid = cfg.build_grid()
    baselines = run_baseline_ensemble(cfg.plan, cfg.params, grid, cfg.eruption)
    # the check every consumer of the file makes, so no unusable file is written
    experiment_tables(cfg.plan, cfg.params.n_steps, baselines)
    write_baselines_json(out / "baselines.json", baselines)
    write_manifest_json(out / "manifest.json", build_manifest(cfg))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.experiments:
        wanted = args.experiments.split(",")
        unknown = sorted(set(wanted) - {e[0] for e in cfg.plan.experiments})
        if unknown:
            raise ConfigurationError(f"--experiments: unknown labels {unknown}")
        kept = tuple(e for e in cfg.plan.experiments if e[0] in wanted)
        cfg = replace(cfg, plan=replace(cfg.plan, experiments=kept))
    out = Path(args.out or cfg.output_dir)
    grid = cfg.build_grid()

    if args.baseline:
        baselines = read_baselines_json(args.baseline)
    else:
        baselines = run_baseline_ensemble(cfg.plan, cfg.params, grid, cfg.eruption)
    # the one check of the baselines, before any of them is written or any member steps
    tables = experiment_tables(cfg.plan, cfg.params.n_steps, baselines)
    if not args.baseline:
        write_baselines_json(out / "baselines.json", baselines)

    digest = config_digest(cfg)
    first_label = cfg.plan.experiments[0][0]
    rows = []
    # each mass's files are written before the next mass steps
    grid_run = run_experiment_grid(cfg.plan, cfg.params, grid, tables, cfg.eruption)
    for mass, pathways, mass_rows in grid_run:
        for (label, member), pathway in pathways.items():
            name = f"pathway_m{mass:g}_{label}_b{member}.json"
            write_pathway_json(out / "pathways" / name, pathway, digest)
        for day in cfg.snapshot_days:
            path = out / "snapshots" / f"dag_m{mass:g}_{first_label}_day{day:g}.dot"
            atomic_write_text(path, export_dot(pathways[first_label, 0], day))
        logger.info("%g Tg: %d members, %d pathway files", mass, cfg.plan.n_members, len(pathways))
        rows += mass_rows
    write_summary_csv(out / "summary.csv", rows)
    # every mass's member b erupts with the one seed
    seeds = [derive_seed(cfg.plan.seed, "eruption", b).seed for b in range(cfg.plan.n_members)]
    member_seeds = {f"{mass:g}/{b}": s for mass in cfg.plan.masses for b, s in enumerate(seeds)}
    write_manifest_json(out / "manifest.json", build_manifest(cfg, seeds=member_seeds))
    logger.info("wrote every mass's files, summary.csv, manifest.json to %s", out)
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    pathway = read_pathway_json(args.pathway)
    dot = export_dot(pathway, args.day, active_only=args.active_only)
    if args.out:
        atomic_write_text(args.out, dot)
    else:
        sys.stdout.write(dot)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.repetitions < 1:
        raise ConfigurationError(f"--repetitions must be >= 1, got {args.repetitions}")
    if args.steps < 1:
        raise ConfigurationError(f"--steps must be >= 1, got {args.steps}")
    cfg = load_config(args.config)
    counts = []
    for entry in args.counts.split(","):
        try:
            counts.append(int(entry))
        except ValueError:
            raise ConfigurationError(f"--counts: {entry!r} is not an integer") from None
        if counts[-1] < 1:
            raise ConfigurationError(f"--counts: {entry!r} must be >= 1")
    # the largest count's series and the run's step normals
    with allocating(f"--steps: {args.steps} steps of {max(counts)} QOIs are too many to hold"):
        np.empty((max(*counts, N_NOISE_BANDS), args.steps + 1))
    grid = cfg.build_grid()
    rows = bench_overhead(counts, cfg.params, grid, args.repetitions, args.steps)
    out = Path(args.out or cfg.output_dir)
    write_bench_csv(out / "bench.csv", rows)
    for r in rows:
        print(f"{r.qoi_count} QOIs: ratio {r.ratio:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volpath",
        description="Surrogate eruption model with in-situ pathway-DAG tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one ensemble member")
    p.add_argument("config")
    p.add_argument("--mass", type=float, default=None, help="eruption mass in Tg")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--member", type=int, default=0)
    p.add_argument("--baseline", default=None, help="baselines.json for T z-score tests")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", help="run the eruption-free baseline ensemble")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("experiment", help="run the full mass x threshold grid")
    p.add_argument("config")
    p.add_argument("--experiments", default=None, help="comma-separated labels to keep")
    p.add_argument("--baseline", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("export-dot", help="render a pathway snapshot as DOT")
    p.add_argument("pathway")
    p.add_argument("--day", type=float, required=True)
    p.add_argument("--active-only", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("bench", help="QOI-count overhead benchmark")
    p.add_argument("config")
    p.add_argument("--counts", default="7,35,175,875")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("baseline", "experiments", "out"):
            if getattr(args, flag, None) == "":
                raise ConfigurationError(f"--{flag} must not be empty")
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (VolpathError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
