"""The volpath benchmark: run a workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload ensemble_grid --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload, in turn

Each timed run of a workload is a fresh `python3 perfbench/worker.py` process
with BLAS and OpenMP pinned to one thread, timed from outside; volpath comes
from `src/` beside this directory.  With --trace 0 the last line of output
is the end-to-end metrics; with --trace 1 untraced and traced processes
alternate and the last line is the per-layer metrics.  A results file with the
samples and the environment goes to `.bench_results/`.  Exit code 2 means
there is no volpath source to benchmark, 1 that a workload process failed or
a layer recorded no calls.
"""

from __future__ import annotations

import os

from workloads import PINNED_THREADS

# before numpy is imported, here and in every workload process
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import Checks, check_experiment, check_hook, sha256_of, tree_digest  # noqa: E402
from tracer import PER_LAYER, hook_metrics, rep_layer_metrics, tail_percentile  # noqa: E402
from workloads import DEFAULT_SEED, END_TO_END, HOOK_STEPS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: set-up processes of an untraced run: at least MIN_SETUPS, and until
#: SETUP_SECONDS have been spent; setup_s is their median
MIN_SETUPS = 3
SETUP_SECONDS = 3.0
#: timed processes an untraced run makes at least, however short --seconds is
MIN_REPS = 3
PROCESS_TIMEOUT_S = 120


class BenchmarkError(Exception):
    """A workload process failed, or a traced layer recorded no calls."""


def run_worker(args: list[str], result: Path) -> tuple[float, dict]:
    """Wall seconds of one worker process, seen from here, and its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, str(result)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{' '.join(args[:2])} took over {PROCESS_TIMEOUT_S} s") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(args[:2])} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return wall, json.loads(result.read_text())


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _median(values) -> float:
    return float(statistics.median(values))


def measure(name: str, seed: int, seconds: float, trace: bool, reference: dict | None,
            min_setups: int = MIN_SETUPS, setup_seconds: float = SETUP_SECONDS,
            min_reps: int = MIN_REPS) -> dict:
    """Set up, then run timed processes for about `seconds`; check every output."""
    import yaml

    from volpath import config as vconfig, export

    workload = WORKLOADS[name]
    config_dict = workload.config(seed)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.yaml"
        config_path.write_text(yaml.safe_dump(config_dict, sort_keys=False))
        cfg = vconfig.load_config(config_path)
        checks = Checks()

        setup_walls: list[float] = []
        while len(setup_walls) < min_setups or sum(setup_walls) < setup_seconds:
            out = work / f"setup{len(setup_walls)}"
            wall, _ = run_worker(["setup", name, str(config_path), str(out)], work / "result.json")
            setup_walls.append(wall)

        want_digest = (reference or {}).get(name, {}).get(str(seed))
        reps: list[dict] = []
        first_tree = None
        start = time.perf_counter()
        while True:
            untraced = sum(not r["traced"] for r in reps)
            traced = len(reps) - untraced
            short = untraced < (1 if trace else min_reps) or (trace and traced < 1)
            typical = _median([r["wall"] for r in reps]) if reps else 0.0
            # start another process if it should end within half a process of `seconds`
            if not short and time.perf_counter() - start + typical / 2 > seconds:
                break
            rep_traced = trace and traced < untraced
            out = work / f"rep{len(reps)}"
            args = ["run", name, str(config_path), str(out)]
            if rep_traced:
                args += ["--trace", str(work / "trace.json")]
            wall, report = run_worker(args, work / "result.json")
            rep = {"traced": rep_traced, "wall": wall, "rss_mb": report["maxrss_kb"] / 1024,
                   "bytes": tree_bytes(out)}
            if rep_traced:
                rep["layers"], rep["layer_calls"] = rep_layer_metrics(
                    json.loads((work / "trace.json").read_text()), wall)
            elif workload.kind == "hook":
                rep["hook"] = hook_metrics(report["pass_seconds"], HOOK_STEPS)

            if workload.kind == "hook":
                check_hook(checks, out, report)
            else:
                check_experiment(checks, out, cfg, export)
            digest = sha256_of(out / workload.reference_file)
            rep["digest"] = digest
            if want_digest is not None:
                checks.expect(digest == want_digest,
                              f"{workload.reference_file} differs from the reference for seed {seed}")
            tree = tree_digest(out, skip=("bench.csv",))
            if first_tree is None:
                first_tree = tree
            else:
                checks.expect(tree == first_tree, f"rep {len(reps)}: outputs differ from rep 0's")
            shutil.rmtree(out)
            reps.append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {"workload": workload, "config": config_dict, "setup_walls": setup_walls,
            "reps": reps, "checks": checks}


def end_to_end_metrics(run: dict) -> dict[str, float]:
    reps = [r for r in run["reps"] if not r["traced"]]
    steps = run["workload"].member_steps(run["config"])
    return {
        "wall_s": _median(r["wall"] for r in reps),
        "member_steps_per_s": _median(steps / r["wall"] for r in reps),
        "setup_s": _median(run["setup_walls"]),
        "peak_rss_mb": _median(r["rss_mb"] for r in reps),
        "output_bytes": _median(r["bytes"] for r in reps),
    }


def per_layer_metrics(run: dict) -> dict[str, float]:
    workload = run["workload"]
    traced = [r for r in run["reps"] if r["traced"]]
    untraced = [r for r in run["reps"] if not r["traced"]]
    for rep in traced:
        silent = [layer for layer in workload.layers if rep["layer_calls"][layer] == 0]
        if silent:
            raise BenchmarkError(f"{workload.name}: traced layers recorded no calls: {silent}")
    metrics = {k: _median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    for key in PER_LAYER:
        if key.startswith(("qoi.us_per_qoi.", "qoi.overhead_ratio.")):
            is_hook = workload.kind == "hook"
            metrics[key] = _median(r["hook"][key] for r in untraced) if is_hook else 0.0
    metrics["trace.overhead_ratio"] = (
        _median(r["wall"] for r in traced) / _median(r["wall"] for r in untraced)
    )
    return {key: metrics[key] for key in PER_LAYER}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a git tree
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "volpath").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in PINNED_THREADS},
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, write its results file, and return its result object."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else None
    # setup_s is reported only untraced; a traced run sets up once
    setups = {"min_setups": 1, "setup_seconds": 0.0} if trace else {}
    run = measure(name, seed, seconds, trace, reference, **setups)
    units = PER_LAYER if trace else END_TO_END
    values = per_layer_metrics(run) if trace else end_to_end_metrics(run)
    checks = run["checks"]
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    walls = [r["wall"] for r in run["reps"] if not r["traced"]]
    tail = tail_percentile(walls)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "config": run["config"],
        "result": result,
        "wall_s_samples": len(walls),
        "wall_s_tail": ({"percentile": tail[1], "value": tail[0]} if tail else
                        f"none: {len(walls)} samples leave no percentile with 10 beyond"),
        "setup_walls": run["setup_walls"],
        "reps": run["reps"],
        "failures": checks.failures[:50],
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"# {name} seed {seed}: {len(walls)} untraced + {len(run['reps']) - len(walls)} traced "
          f"processes, {checks.attempted} checks, {len(checks.failures)} failed -> {path}")
    for message in checks.failures[:10]:
        print(f"#   FAILED {message}")
    for key, metric in result["metrics"].items():
        print(f"{name:16s} {key:34s} {metric['value']:>16.6g} {metric['unit']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "volpath" / "__init__.py").is_file():
        print(f"no volpath source at {SRC / 'volpath'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
