"""Package layout: one-way imports, none inside functions, a caller for every public name,
and one loop that steps runs."""

import ast
from pathlib import Path

import pytest

from test_benchmark_targets import load_targets

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


def public_members(cls):
    """Names of the public methods, properties and annotated fields in a class body."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


def test_every_public_name_has_a_caller():
    """A public function, class or class member that nothing in src/ uses belongs in tests/
    as an oracle, or nowhere.

    A member counts as used only where src/ reads it as an attribute: a field
    that is only ever written is unused.  Names the benchmark traces count as
    used.
    """
    trees = [parse(path) for path in MODULES]
    traced = {qualname for names in load_targets().values() for qualname in names}
    used = {qualname.split(".")[0] for qualname in traced}
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in zip(MODULES, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    unread = [
        f"{path.stem}.{cls.name}.{name}"
        for path, tree in zip(MODULES, trees)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for name in public_members(cls)
        if name not in read and f"{cls.name}.{name}" not in traced
    ]
    assert unused == []
    assert unread == []


#: The functions allowed to call a Stepper method: the one loop that steps
#: runs and the one-step function
STEPPING = {"harness.run_lockstep", "surrogate.step"}
STEPPER_METHODS = {"advance_tracers", "advance_temperature", "advance_zone_temperature"}


def stepper_calls(path):
    """(innermost enclosing function or class, line) of each call to a Stepper method."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in STEPPER_METHODS:
                    calls.append((scope, child.lineno))
            visit(child, scope)

    visit(parse(path), path.stem)
    return calls


def test_one_loop_steps_runs():
    calls = [call for path in MODULES for call in stepper_calls(path)]
    strays = [f"{scope} (line {line})" for scope, line in calls if scope not in STEPPING]
    assert strays == [], "only harness.run_lockstep may step a run"
    assert "harness.run_lockstep" in {scope for scope, _ in calls}
