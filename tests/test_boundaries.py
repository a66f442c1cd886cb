"""Module boundaries of the package: no module reaches into another's
private names."""

import ast
import pathlib

import inlslab

SOURCES = sorted(pathlib.Path(inlslab.__file__).parent.glob("*.py"))


def defined_names(tree: ast.AST) -> set:
    """Every name a module defines: its functions, classes and methods,
    the names it assigns or imports, and the attributes it assigns."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def foreign_private_uses(source: str) -> list:
    """(line, 'obj._name') for each private attribute read through an
    object other than self or cls whose name the module does not define."""
    tree = ast.parse(source)
    own = defined_names(tree)
    uses = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        if name not in own:
            uses.append((node.lineno, f"{ast.unparse(node.value)}.{name}"))
    return uses


def test_sources_are_found():
    assert {p.stem for p in SOURCES} >= {"cutoff", "observables", "solver", "spectral"}


def test_no_module_reads_another_modules_private_names():
    found = {p.name: foreign_private_uses(p.read_text()) for p in SOURCES}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_guard_flags_a_foreign_private_name_and_passes_an_own_one():
    # a virial pass reading spectral's private plan._axis_derivative fails;
    # find_epsilon reading profile._weight2, a name of its own module, passes
    foreign = "def f(plan, u):\n    return plan._axis_derivative(u, 0)\n"
    own = "class P:\n    def _weight2(self, a):\n        return a\n\ndef g(p):\n    return p._weight2(1)\n"
    assert foreign_private_uses(foreign) == [(2, "plan._axis_derivative")]
    assert foreign_private_uses(own) == []
    assert foreign_private_uses("class A:\n    def f(self):\n        return self._x\n") == []
    assert foreign_private_uses("def f(x):\n    return x.__class__\n") == []
