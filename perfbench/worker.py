"""One workload process: runs one step of a workload through volpath's public entry points.

    python3 perfbench/worker.py setup WORKLOAD CONFIG OUT RESULT
    python3 perfbench/worker.py run WORKLOAD CONFIG OUT RESULT [--trace FILE]

`run.py` starts each of these as a fresh process and times it from outside.
volpath is imported from the `src/` directory next to this one, never from an
installed copy.  RESULT receives the process's peak RSS and, for
hook_scaling, its pass timings and check outcomes; with --trace the spans go
to FILE when the process ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracer import QOI_COUNTS, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _import_volpath():
    import volpath

    if Path(volpath.__file__).resolve().parent != ROOT / "src" / "volpath":
        raise SystemExit(f"volpath imported from {volpath.__file__}, not from {ROOT / 'src'}")
    from volpath import cli, config, export, harness, qoi, surrogate

    return cli, config, export, harness, qoi, surrogate


def setup(config_path: str) -> dict:
    """Imports, load_config and build_grid."""
    _, config, *_ = _import_volpath()
    config.load_config(config_path).build_grid()
    return {}


def experiment(config_path: str, out: Path) -> dict:
    cli, *_ = _import_volpath()
    rc = cli.main(["experiment", config_path, "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"volpath experiment exited with {rc}")
    return {}


def _state_arrays(state) -> tuple:
    return (state.so2, state.so4, state.temperature, state.aod, state.band_noise,
            np.array([state.step_index, state.time]))


def hook_scaling(config_path: str, out: Path) -> dict:
    """The paper's overhead axis: the same member with the hook off, then on at each QOI count.

    Every hook-on pass goes through harness.run_member.  The final state of
    each pass must be bit-identical to the hook-off pass, and each synthetic
    QOI series must equal the canonical T-QOI it copies.
    """
    _, config, export, harness, qoi, surrogate = _import_volpath()

    class LastStateHook(harness.TrackerHook):
        def observe(self, state):
            super().observe(state)
            self.last_state = state

    cfg = config.load_config(config_path)
    grid = cfg.build_grid()
    params, eruption = cfg.params, cfg.eruption
    seed = harness.derive_seed(cfg.plan.seed, "eruption", 0)
    steps = params.n_steps

    def hook_on(specs):
        hook = LastStateHook(grid, specs, steps, params.dt)
        start = time.perf_counter()
        result = harness.run_member(params, eruption, grid, seed, hook)
        return time.perf_counter() - start, result.series, hook.last_state

    def hook_off():
        start = time.perf_counter()
        rng = surrogate.make_rng(seed)
        state = surrogate.initialize(params, grid, rng=rng)
        for _ in range(steps):
            state = surrogate.step(state, params, eruption, grid, rng)
        return time.perf_counter() - start, state

    hook_off()  # warm-up, so first-call costs do not land in the hook-off timing
    seconds, state = hook_off()
    passes = {"off": seconds}
    reference_state = _state_arrays(state)

    finals = {}
    synthetic = {}
    for count in QOI_COUNTS:
        passes[str(count)], synthetic[count], finals[count] = hook_on(
            harness.synthetic_registry(count)
        )
    _, canonical, finals["canonical"] = hook_on(qoi.registry_canonical())

    failures = []
    attempted = 0
    for label, final in finals.items():
        attempted += 1
        arrays = _state_arrays(final)
        if not all(np.array_equal(a, b) for a, b in zip(arrays, reference_state)):
            failures.append(f"hook-on final state ({label}) differs from the hook-off state")
    for count, series in synthetic.items():
        for qid, values in series.items():
            attempted += 1
            copied = qid.split(":", 1)[1]
            if not np.array_equal(values, canonical[copied]):
                failures.append(f"{qid} at {count} QOIs differs from canonical {copied}")

    rows = [
        harness.BenchRow(
            qoi_count=count,
            baseline_s_per_step=passes["off"] / steps,
            tracked_s_per_step=passes[str(count)] / steps,
            ratio=passes[str(count)] / passes["off"],
        )
        for count in QOI_COUNTS
    ]
    export.write_bench_csv(out / "bench.csv", rows)
    export.write_series_csv(out / "series.csv", canonical, params.dt)
    return {"pass_seconds": passes, "checks": {"attempted": attempted, "failures": failures}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "run"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("config")
    parser.add_argument("out", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        install(tracer)
    workload = WORKLOADS[args.workload]
    if args.phase == "setup":
        report = setup(args.config)
    elif workload.kind == "hook":
        report = hook_scaling(args.config, args.out)
    else:
        report = experiment(args.config, args.out)
    if tracer is not None:
        args.trace.write_text(json.dumps(tracer.dump()))
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.result.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
