"""Every function the benchmark traces still exists under the name it wraps.

perfbench/tracer.py raises on a missing target only when the benchmark runs;
this catches a rename in the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only; volpath is imported lazily
    return module.TARGETS


@pytest.mark.parametrize(
    "layer, qualname",
    [(layer, name) for layer, names in load_targets().items() for name in names],
)
def test_target_resolves(layer, qualname):
    owner = importlib.import_module(f"volpath.{layer}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
