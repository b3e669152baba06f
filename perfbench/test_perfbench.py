"""The benchmark's own tests: span arithmetic, the percentile rule, metric names, wrapping.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import (  # noqa: E402
    LAYERS,
    PER_LAYER,
    QOI_COUNTS,
    Tracer,
    hook_metrics,
    rep_layer_metrics,
    self_times,
    tail_percentile,
)
from workloads import END_TO_END, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the covered part counts once
        ["a.child", 2.0, 3.0, 1],
        ["late", 9.0, 12.0, 0],  # runs past its parent: clipped to it
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_tracer_records_nesting_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "qoi.inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "harness.outer")
    outer()
    outer()
    parents = [s[3] for s in tracer.spans]
    assert [s[0] for s in tracer.spans] == ["harness.outer", "qoi.inner", "qoi.inner"] * 2
    assert parents == [-1, 0, 0, -1, 3, 3]
    # outer spans 0..5, each inner 1 tick: self time 5 - 2
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0, 3.0, 1.0, 1.0]


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "grid.boom")()
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    assert tracer.wrap(lambda: 1, "grid.ok")() == 1
    assert tracer.spans[1][3] == -1


@pytest.mark.parametrize("n", [11, 50, 500, 999, 1000, 1001, 2000, 12345])
def test_tail_percentile_leaves_at_least_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)]
    value, used = tail_percentile(samples)
    beyond = sum(s > value for s in samples)
    assert beyond >= 10
    assert used <= 99.0
    if n * 0.01 >= 10:
        assert used == 99.0
    else:
        # the highest percentile allowed leaves exactly ten beyond
        assert beyond == 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile([3.0, 1.0, 2.0] + [0.0] * 8) == (0.0, pytest.approx(100 / 11))


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name, unit in [*END_TO_END.items(), *PER_LAYER.items(), *((w, "s") for w in WORKLOADS)]:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_per_layer_name_is_emitted():
    steps = [["surrogate.step", 0.1 + i * 0.01, 0.105 + i * 0.01, 0] for i in range(11)]
    trace = {"spans": [["cli.main", 0.0, 1.0, -1], *steps], "counters": {}}
    metrics, calls = rep_layer_metrics(trace, wall_s=2.0)
    hook = hook_metrics({"off": 1.0, **{str(n): 2.0 for n in QOI_COUNTS}}, steps=10)
    assert set(metrics) | set(hook) | {"trace.overhead_ratio"} == set(PER_LAYER)
    assert metrics["trace.coverage"] == 0.5
    assert metrics["cli.self_s"] == pytest.approx(1.0 - 11 * 0.005)
    assert metrics["surrogate.step_calls"] == 11
    assert calls == {**dict.fromkeys(LAYERS, 0), "cli": 1, "surrogate": 11}


def _traced_worker(tmp_path, workload, config):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "run", workload, str(config_path),
         str(tmp_path / "out"), str(tmp_path / "result.json"), "--trace", str(tmp_path / "t.json")],
        check=True, timeout=120,
    )
    spans = json.loads((tmp_path / "t.json").read_text())["spans"]
    return {(s[0], spans[s[3]][0] if s[3] >= 0 else None) for s in spans}


def test_wrapping_reaches_names_imported_by_name_and_inside_functions(tmp_path):
    config = WORKLOADS["ensemble_grid"].config(0)
    config["grid"] = {"nlat": 16, "nlon": 16, "nlev": 8}
    config["surrogate"]["overrides"]["n_steps"] = 8
    config["plan"].update(masses=[5.0], n_members=2, baseline_members=2)
    config["snapshot_days"] = [1.0]
    edges = _traced_worker(tmp_path, "ensemble_grid", config)
    # harness binds `step` by name; run_experiment_grid imports compute_pathway locally
    assert ("surrogate.step", "harness.run_member") in edges
    assert ("pathway.compute_pathway", "harness.run_experiment_grid") in edges
    assert ("export.write_pathway_json", "cli.main") in edges
    assert ("export.atomic_write_text", "export.write_pathway_json") in edges
    assert ("qoi.RegistryEvaluator.evaluate_state", "harness.TrackerHook.observe") in edges


def test_hook_scaling_worker_checks_pass_on_a_small_grid(tmp_path):
    config = WORKLOADS["hook_scaling"].config(3)
    config["grid"] = {"nlat": 16, "nlon": 16, "nlev": 8}
    config["surrogate"]["overrides"]["n_steps"] = 4
    edges = _traced_worker(tmp_path, "hook_scaling", config)
    assert ("harness.TrackerHook.observe", "harness.run_member") in edges
    report = json.loads((tmp_path / "result.json").read_text())
    assert report["checks"]["failures"] == []
    assert report["checks"]["attempted"] == sum(QOI_COUNTS) + len(QOI_COUNTS) + 1
