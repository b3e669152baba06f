"""Package layout: imports flow one way between modules, and none hide in functions."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "volpath"

#: Modules on one rank may not import each other; each may import lower ranks.
RANKS = [
    {"errors"},
    {"grid"},
    {"surrogate"},
    {"qoi"},
    {"pathway", "stats"},
    {"harness"},
    {"config", "export"},
    {"cli"},
]
RANK = {name: i for i, names in enumerate(RANKS) for name in names}
MODULES = sorted(p for p in SRC.glob("*.py") if p.stem != "__init__")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_module_is_ranked():
    assert {p.stem for p in MODULES} == set(RANK)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_intra_package_imports_point_down(path):
    for node in ast.walk(parse(path)):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module is None:
            # `from . import __version__` reads the package, not a module
            assert [a.name for a in node.names] == ["__version__"], ast.dump(node)
            continue
        target = node.module.split(".")[0]
        assert RANK[target] < RANK[path.stem], (
            f"{path.stem} imports {target} (line {node.lineno}) against the layer order"
        )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_local_imports(path):
    for fn in ast.walk(parse(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"{path.stem}.{fn.name} imports at line {node.lineno}"
                )
