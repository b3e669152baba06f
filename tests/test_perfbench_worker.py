"""perfbench's worker runs both workloads, traced, against this source on a tiny grid.

The benchmark reads more of volpath than the names it wraps: the tracer's
counters read RegistryEvaluator.grid and .specs and QoiSpec.level_range, and
the hook workload subclasses TrackerHook.  A change in src that breaks any of
these fails here, in the ordinary test run, rather than only when the
benchmark runs.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY = {
    "grid": {"nlat": 8, "nlon": 4, "nlev": 8},
    "surrogate": {"overrides": {"n_steps": 12}},
    "eruption": {"mass": 10.0, "day": 0.0},
    "plan": {"masses": [5.0, 20.0], "n_members": 2, "baseline_members": 2, "seed": 0},
    "snapshot_days": [1.0],
}


def load_workloads():
    """perfbench's WORKLOADS; its modules import each other as top-level names."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))


WORKLOADS = load_workloads()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_worker_runs_traced(tmp_path, workload):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(TINY))
    out, result, trace = tmp_path / "out", tmp_path / "result.json", tmp_path / "trace.json"
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "run", workload, str(config), str(out),
         str(result), "--trace", str(trace)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    report = json.loads(result.read_text())
    assert report.get("checks", {}).get("failures", []) == []
    traced = json.loads(trace.read_text())
    layers = {name.split(".")[0] for name, *_ in traced["spans"]}
    assert set(WORKLOADS[workload].layers) <= layers
    assert traced["counters"]["qoi.computed_bytes"] > 0
    assert any(out.iterdir())
