"""Spans around volpath's public functions, and the per-layer metrics built from them.

A traced worker process calls `install`, which wraps every function named in
TARGETS in every volpath namespace that binds it (``harness`` imports ``step``
by name, ``cli`` imports the writers by name), so each call records a span:
name, start, end and the index of the span that was open when it started.
Spans stay in memory and are written once, when the worker ends.  The layer
of a span is the volpath module that defines the function.

Nothing here imports volpath at module level, so the benchmark's own tests
run without it.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time
import weakref

#: Public functions wrapped per layer (layer = volpath module name).
TARGETS = {
    "surrogate": ("initialize", "step"),
    "qoi": (
        "registry_canonical",
        "RegistryEvaluator.__init__",
        "RegistryEvaluator.evaluate_state",
    ),
    "pathway": ("base_dag_canonical", "canonical_tests", "compute_pathway", "materialize_dag"),
    "export": (
        "atomic_write_text",
        "write_pathway_json",
        "write_summary_csv",
        "write_series_csv",
        "write_bench_csv",
        "write_baselines_json",
        "read_baselines_json",
        "write_manifest_json",
        "export_dot",
    ),
    "stats": (
        "BaselineStats.update",
        "BaselineStats.std",
        "first_activation",
        "total_active",
        "ensemble_summarize",
    ),
    "harness": (
        "derive_seed",
        "synthetic_registry",
        "activation_summaries",
        "run_member",
        "run_baseline_ensemble",
        "run_experiment_grid",
        "TrackerHook.__init__",
        "TrackerHook.observe",
    ),
    "config": ("load_config", "config_digest", "build_manifest"),
    "grid": ("build_grid",),
    "cli": ("main",),
}

LAYERS = tuple(TARGETS)

QOI_COUNTS = (7, 35, 175, 875)

#: Per-layer metric names and units, in the order they are reported.
PER_LAYER = {
    "surrogate.step_us_p50": "us",
    "surrogate.step_us_p99": "us",
    "surrogate.step_calls": "count",
    "surrogate.self_s": "s",
    "surrogate.initialize_ms": "ms",
    "qoi.evaluate_state_us_p50": "us",
    "qoi.evaluate_state_us_p99": "us",
    "qoi.evaluate_calls": "count",
    "qoi.self_s": "s",
    "qoi.evaluator_build_ms": "ms",
    **{f"qoi.us_per_qoi.n{n}": "us" for n in QOI_COUNTS},
    **{f"qoi.overhead_ratio.n{n}": "ratio" for n in QOI_COUNTS},
    "qoi.computed_bytes_per_call": "bytes",
    "pathway.compute_pathway_ms_p50": "ms",
    "pathway.compute_calls": "count",
    "pathway.self_s": "s",
    "pathway.ns_per_vertex_step": "ns",
    "pathway.active_fraction": "ratio",
    "export.self_s": "s",
    "export.bytes_written": "bytes",
    "export.files_written": "count",
    "export.write_pathway_json_ms_p50": "ms",
    "export.export_dot_ms": "ms",
    "stats.self_s": "s",
    "stats.update_calls": "count",
    "stats.summarize_calls": "count",
    "harness.self_s": "s",
    "harness.run_member_s_p50": "s",
    "harness.members_run": "count",
    "config.load_config_ms": "ms",
    "grid.build_grid_ms": "ms",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

#: A tail percentile is reported only where at least this many samples lie beyond it.
MIN_BEYOND = 10


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        # per-object values of counter functions, dropped with the object
        self.memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._open: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name: str, count=None):
        """fn, recording a span per call; count(tracer, args, result) adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def _count_written(tracer, args, result):
    tracer.add("export.bytes_written", os.path.getsize(args[0]))


def _count_pathway(tracer, args, result):
    tracer.add("pathway.active", int(result.activation.sum()))
    tracer.add("pathway.cells", int(result.activation.size))


def _count_evaluated(tracer, args, result):
    evaluator = args[0]
    if evaluator not in tracer.memo:
        # computed, not measured: each QOI reads its field and an equal-size
        # float64 weight vector once per call
        g = evaluator.grid
        cells = [g.nlat * g.nlon * (g.nlev if s.level_range is not None else 1)
                 for s in evaluator.specs]
        tracer.memo[evaluator] = 2 * 8 * sum(cells)
    tracer.add("qoi.computed_bytes", tracer.memo[evaluator])


COUNTERS = {
    "export.atomic_write_text": _count_written,
    "pathway.compute_pathway": _count_pathway,
    "qoi.RegistryEvaluator.evaluate_state": _count_evaluated,
}


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS function wherever a loaded volpath module binds it.

    A missing target raises AttributeError, so a rename cannot silently
    remove a layer from the trace.
    """
    import volpath.cli  # noqa: F401  (imports every volpath module)

    modules = [m for n, m in sys.modules.items() if n == "volpath" or n.startswith("volpath.")]
    for layer, names in TARGETS.items():
        module = sys.modules[f"volpath.{layer}"]
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            name = f"{layer}.{qualname}"
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, COUNTERS.get(name)))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(original, name, COUNTERS.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = _union_length(
            [(max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]]
        )
        out.append(end - start - covered)
    return out


def tail_percentile(samples: list[float], want: float = 99.0) -> tuple[float, float] | None:
    """(value, percentile used): nearest-rank `want`, lowered until >= MIN_BEYOND samples lie beyond.

    None when fewer than MIN_BEYOND + 1 samples exist, since then no
    percentile has enough samples beyond it.
    """
    n = len(samples)
    if n <= MIN_BEYOND:
        return None
    used = min(want, 100.0 * (n - MIN_BEYOND) / n)
    rank = max(1, math.ceil(used * n / 100.0 - 1e-9))
    return sorted(samples)[rank - 1], used


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def rep_layer_metrics(trace: dict, wall_s: float) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced process, and its call count per layer.

    wall_s is the process's wall time as seen from outside; the metrics of
    the QOI-count sweep and the trace overhead come from elsewhere.
    """
    spans = trace["spans"]
    counters = trace["counters"]
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    top_level = 0.0
    for span, own in zip(spans, selfs):
        name, start, end, parent = span
        durations.setdefault(name, []).append(end - start)
        layer_self[name.split(".", 1)[0]] += own
        if parent < 0:
            top_level += end - start

    def calls(name):
        return len(durations.get(name, ()))

    def median_of(name, scale):
        return _median(durations.get(name, [])) * scale

    def p99_of(name, scale):
        samples = durations.get(name, [])
        if not samples:
            return 0.0
        tail = tail_percentile(samples)
        if tail is None:
            raise ValueError(f"{name}: {len(samples)} calls are too few for a tail percentile")
        return tail[0] * scale

    cells = counters.get("pathway.cells", 0)
    evaluate_calls = calls("qoi.RegistryEvaluator.evaluate_state")
    metrics = {
        "surrogate.step_us_p50": median_of("surrogate.step", 1e6),
        "surrogate.step_us_p99": p99_of("surrogate.step", 1e6),
        "surrogate.step_calls": calls("surrogate.step"),
        "surrogate.self_s": layer_self["surrogate"],
        "surrogate.initialize_ms": median_of("surrogate.initialize", 1e3),
        "qoi.evaluate_state_us_p50": median_of("qoi.RegistryEvaluator.evaluate_state", 1e6),
        "qoi.evaluate_state_us_p99": p99_of("qoi.RegistryEvaluator.evaluate_state", 1e6),
        "qoi.evaluate_calls": evaluate_calls,
        "qoi.self_s": layer_self["qoi"],
        "qoi.evaluator_build_ms": median_of("qoi.RegistryEvaluator.__init__", 1e3),
        "qoi.computed_bytes_per_call": (
            counters.get("qoi.computed_bytes", 0) / evaluate_calls if evaluate_calls else 0.0
        ),
        "pathway.compute_pathway_ms_p50": median_of("pathway.compute_pathway", 1e3),
        "pathway.compute_calls": calls("pathway.compute_pathway"),
        "pathway.self_s": layer_self["pathway"],
        "pathway.ns_per_vertex_step": (
            sum(durations.get("pathway.compute_pathway", [])) / cells * 1e9 if cells else 0.0
        ),
        "pathway.active_fraction": counters.get("pathway.active", 0) / cells if cells else 0.0,
        "export.self_s": layer_self["export"],
        "export.bytes_written": counters.get("export.bytes_written", 0),
        "export.files_written": calls("export.atomic_write_text"),
        "export.write_pathway_json_ms_p50": median_of("export.write_pathway_json", 1e3),
        "export.export_dot_ms": median_of("export.export_dot", 1e3),
        "stats.self_s": layer_self["stats"],
        "stats.update_calls": calls("stats.BaselineStats.update"),
        "stats.summarize_calls": calls("stats.ensemble_summarize"),
        "harness.self_s": layer_self["harness"],
        "harness.run_member_s_p50": median_of("harness.run_member", 1.0),
        "harness.members_run": calls("harness.run_member"),
        "config.load_config_ms": median_of("config.load_config", 1e3),
        "grid.build_grid_ms": median_of("grid.build_grid", 1e3),
        "cli.self_s": layer_self["cli"],
        "trace.coverage": top_level / wall_s,
    }
    layer_calls = dict.fromkeys(LAYERS, 0)
    for name, values in durations.items():
        layer_calls[name.split(".", 1)[0]] += len(values)
    return metrics, layer_calls


def hook_metrics(pass_seconds: dict, steps: int) -> dict[str, float]:
    """QOI-count overhead from one untraced hook_scaling process's pass timings."""
    off = pass_seconds["off"]
    out = {}
    for n in QOI_COUNTS:
        on = pass_seconds[str(n)]
        out[f"qoi.overhead_ratio.n{n}"] = on / off
        out[f"qoi.us_per_qoi.n{n}"] = (on - off) / steps / n * 1e6
    return out
