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

from .config import ExperimentConfig, build_manifest, config_digest, load_config
from .errors import ConfigurationError, VolpathError, checked
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
    run_baseline_ensemble,
    run_experiment_grid,
    tracer_unit_rows,
)
from .pathway import (
    InactiveTest,
    ZScoreHysteresis,
    base_dag_canonical,
    canonical_tests,
    compute_pathway,
    score_tables,
)

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
    baselines = None
    if args.baseline:
        baselines = read_baselines_json(args.baseline)
        score_tables(base, tests, baselines, cfg.params.n_steps)
    else:
        # no baseline: z-score tests cannot be scored, leave them inactive
        tests = {
            qid: InactiveTest() if isinstance(test, ZScoreHysteresis) else test
            for qid, test in tests.items()
        }
    seed = derive_seed(cfg.plan.seed, "eruption", args.member)
    unit = tracer_unit_rows(cfg.params, cfg.eruption, grid) if cfg.eruption.mass else None
    series = canonical_series(cfg.params, cfg.eruption, grid, [seed], unit)[0]
    pathway = compute_pathway(base, series, tests, baselines, cfg.params.dt)

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
    tests = canonical_tests(*cfg.plan.experiments[0][1:])
    score_tables(base_dag_canonical(), tests, baselines, cfg.params.n_steps)
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
    # every experiment z-scores the same vertices, so one check covers them all
    tests = canonical_tests(*cfg.plan.experiments[0][1:])
    score_tables(base_dag_canonical(), tests, baselines, cfg.params.n_steps)
    if not args.baseline:
        write_baselines_json(out / "baselines.json", baselines)

    result = run_experiment_grid(cfg.plan, cfg.params, grid, baselines, cfg.eruption)
    digest = config_digest(cfg)
    write_summary_csv(out / "summary.csv", result.rows)
    for (mass, label, member), pathway in result.pathways.items():
        name = f"pathway_m{mass:g}_{label}_b{member}.json"
        write_pathway_json(out / "pathways" / name, pathway, digest)
    if cfg.snapshot_days:
        first_label = cfg.plan.experiments[0][0]
        for mass in cfg.plan.masses:
            pathway = result.pathways[(mass, first_label, 0)]
            for day in cfg.snapshot_days:
                path = out / "snapshots" / f"dag_m{mass:g}_{first_label}_day{day:g}.dot"
                atomic_write_text(path, export_dot(pathway, day))
    seeds = {f"{mass:g}/{b}": s.seed for (mass, b), s in result.member_seeds.items()}
    write_manifest_json(out / "manifest.json", build_manifest(cfg, seeds=seeds))
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
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (VolpathError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
