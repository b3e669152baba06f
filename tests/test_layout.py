"""Package layout: one-way imports, none inside functions, a caller for every public name,
the only functions that step runs or draw their random numbers, the one function that
advances their clock, the one function that reads an input file and the one that builds an
output path."""

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


#: The functions allowed to call a Stepper method: the loop that steps one
#: whole state, the zone-mean loop of an ensemble's members and the one-step
#: function
STEPPING = {"harness.run_member", "harness.canonical_series", "surrogate.step"}
STEPPER_METHODS = {
    "advance_tracers", "advance_temperature", "advance_zone_temperature", "noise_path",
}


def scoped_nodes(path):
    """(innermost enclosing function or class, node) of every node below a module."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
                continue
            yield scope, child
            yield from visit(child, scope)

    return visit(parse(path), path.stem)


def calls_to(path, names):
    """(innermost enclosing function or class, line) of each call to a function in names."""
    calls = []
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                calls.append((scope, node.lineno))
    return calls


def test_only_the_stepping_functions_step_runs():
    calls = [call for path in MODULES for call in calls_to(path, STEPPER_METHODS)]
    strays = [f"{scope} (line {line})" for scope, line in calls if scope not in STEPPING]
    assert strays == [], f"only {sorted(STEPPING)} may step a run"
    assert {scope for scope, _ in calls} == STEPPING


#: The functions allowed to draw random numbers: a run's start, and the step
#: normals of the one-step function, a whole-state run and an ensemble.  A
#: Stepper draws nothing.
DRAWING = {
    "surrogate.initialize", "surrogate.step", "harness.run_member", "harness.canonical_series",
}


def test_only_the_runs_draw():
    calls = [call for path in MODULES for call in calls_to(path, {"standard_normal"})]
    strays = [f"{scope} (line {line})" for scope, line in calls if scope not in DRAWING]
    assert strays == [], f"only {sorted(DRAWING)} may draw random numbers"
    assert {scope for scope, _ in calls} == DRAWING


#: The one function that advances a run's clock, and the exception that records
#: the step it failed at
CLOCK_WRITERS = {"surrogate.Stepper.advance_tracers", "errors.NumericalFailureError.__init__"}


def test_one_owner_of_the_clock():
    writes = [
        (scope, node.lineno)
        for path in MODULES
        for scope, node in scoped_nodes(path)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr in {"step_index", "time"}
    ]
    strays = [f"{scope} (line {line})" for scope, line in writes if scope not in CLOCK_WRITERS]
    assert strays == [], "only Stepper.advance_tracers may advance a run's clock"
    assert "surrogate.Stepper.advance_tracers" in {scope for scope, _ in writes}


def test_one_reader_of_input_files():
    """The configuration, pathway and baselines files are all read by errors.read_input, so
    every bad input file fails the one way."""
    readers = {"read_text", "read_bytes", "open"}
    calls = [call for path in MODULES for call in calls_to(path, readers)]
    assert {scope for scope, _ in calls} == {"errors.read_input"}, calls


def test_one_builder_of_output_paths():
    """cli._outputs joins every path a command writes, and checks each before it returns them,
    so a write to a path the check never saw raises KeyError instead of going ahead."""
    joins = [
        (scope, node.lineno)
        for scope, node in scoped_nodes(SRC / "cli.py")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
    ]
    assert {scope for scope, _ in joins} == {"cli._outputs"}, joins
