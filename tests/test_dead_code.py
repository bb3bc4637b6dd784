"""No product code without a reader.

Every module under src/hornsafe/ is parsed with ast.  A top-level
function or class must be named somewhere in src/: by a Name it reads,
an import, or an attribute access (kernel.simplex_feasible).  A method
or class field must be read by an attribute access (x.member) somewhere
in src/; a plain name match would be too loose, since parent, size and
name are also local variables.  Dunder methods are called by Python
itself and are not checked, so a dunder only the tests use passes
unseen: that is how LinConstraint's __and__, __iter__ and __len__ and
InterpretationModel.__iter__ stayed in src/ until they were deleted
(the tests call conjoin and read rows and entries instead).  Code read
only by tests belongs in tests/.

The check matches attribute names only, not the class they are read
on: a method counts as read when any attribute of the same name is read
anywhere in src/.  So a method the tests alone call passes unseen while
another class has a member of its name that src/ reads, as Row.coeffs()
did beside chc_core._LinExpr.coeffs, InterpretationModel.predicates()
beside Program.predicates and Polyhedron.pretty() beside
LinConstraint.pretty; all three were moved into tests/oracles.py (the
last as poly_pretty).

Nor may a module import a name it never reads: every name an import
binds (`import a.b` binds a) must be loaded somewhere in that module or
listed in its __all__.  `from __future__` imports change how the module
compiles and are left out.

The other way round, every name an export list (__all__) offers must
exist: a stale entry breaks only a star import.

A _-prefixed module-level name belongs to its module: no other module
under src/hornsafe/ may import it or read it as an attribute of the
module (`from hornsafe.lra.solver import _dense`, `kernel._simplex`).
A module that needs it asks for a public name instead, as
tree_interpolation calls lra.refutation rather than placing a tree's
rows in the kernel's columns itself.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hornsafe"

# definitions kept without a reader in src/, one reason each
ALLOWED = {
    "model.is_model": "ROADMAP item 4 gives it a caller: the check of a SAFE verdict's model",
    "chc_core.Variable.name": "the accessor for a variable's name that the tests and corpusbench/replay.py read",
}

# methods that a base class outside src/ calls
OVERRIDES = {"cli._Parser.error"}  # argparse.ArgumentParser calls it on a usage error


def parse_modules(root: Path) -> dict[str, ast.Module]:
    """Each module under root, keyed by its dotted path below root."""
    return {
        ".".join(path.relative_to(root).with_suffix("").parts): ast.parse(path.read_text(), str(path))
        for path in sorted(root.rglob("*.py"))
    }


def _definitions(modules: dict[str, ast.Module]):
    """(qualified name, is a member, name) of every top-level function
    and class and of every method and annotated field of a top-level
    class, dunders left out."""
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{mod}.{node.name}", False, node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{mod}.{node.name}.{name}", True, name


def unread(modules: dict[str, ast.Module]) -> set[str]:
    """The qualified names of the definitions nothing in modules reads."""
    names = set()
    attributes = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return {
        qualified
        for qualified, member, name in _definitions(modules)
        if name not in attributes and (member or name not in names)
    } - OVERRIDES


def unread_imports(modules: dict[str, ast.Module]) -> set[str]:
    """module.name of every name a module imports and never reads."""
    found = set()
    for mod, tree in modules.items():
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found.update(f"{mod}.{name}" for name in bound if name not in read)
    return found


def test_every_definition_in_src_has_a_reader():
    found = unread(parse_modules(SRC))
    assert sorted(found - ALLOWED.keys()) == [], "read only by tests, or by nothing: move or delete"
    assert sorted(ALLOWED.keys() - found) == [], "allowed but read in src/: drop the entry"


def test_a_local_variable_does_not_count_as_a_read():
    source = """
class Node:
    parent: int
    index: int

    def size(self):
        return 1

    def __len__(self):
        return 1


def helper():
    pass


def walk(node: Node):
    parent = size = 0
    return node.index + parent + size
"""
    modules = {"m": ast.parse(source), "user": ast.parse("from m import walk\n")}
    assert unread(modules) == {"m.Node.parent", "m.Node.size", "m.helper"}


def test_every_import_in_src_is_read():
    assert sorted(unread_imports(parse_modules(SRC))) == [], "imported but never read: drop the import"


def test_an_import_counts_when_read_or_exported():
    source = """
from __future__ import annotations

import functools
import os.path
import itertools as it
from math import gcd, lcm
from typing import Mapping

__all__ = ["lcm"]


def f(xs: Mapping) -> str:
    gcd = 0
    return os.path.join("a")


def g() -> int:
    from math import floor, isqrt
    return isqrt(4)
"""
    # an assignment to an imported name is not a read of it, and an
    # import inside a function binds names as one at the top does
    assert unread_imports({"m": ast.parse(source)}) == {"m.functools", "m.it", "m.gcd", "m.floor"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node: ast.expr) -> list[str] | None:
    """The names of an attribute chain a.b.c rooted at a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def private_reads(modules: dict[str, ast.Module], package: str = "hornsafe") -> set[str]:
    """'module: other.name' for every _-prefixed name a module imports
    from, or reads as an attribute of, another module of the package;
    modules are keyed as parse_modules keys them."""
    dotted = {}
    for mod in modules:
        parts = mod.split(".")
        dotted[mod] = ".".join([package, *parts[:-1]] if parts[-1] == "__init__" else [package, *parts])
    names = set(dotted.values())
    found = set()
    for mod, tree in modules.items():
        own = dotted[mod]
        base = own if mod.endswith("__init__") else own.rpartition(".")[0]
        # name bound by an import -> the module of the package it is
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    head = base.rsplit(".", node.level - 1)[0] if node.level > 1 else base
                    source = f"{head}.{source}" if source else head
                for alias in node.names:
                    if _private(alias.name) and source in names and source != own:
                        found.add(f"{mod}: {source}.{alias.name}")
                    if f"{source}.{alias.name}" in names:
                        bound[alias.asname or alias.name] = f"{source}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        root = alias.name.partition(".")[0]
                        bound[root] = root
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and _private(node.attr)):
                continue
            chain = _dotted(node.value)
            if chain is None or chain[0] not in bound:
                continue
            target = ".".join([bound[chain[0]], *chain[1:]])
            if target in names and target != own:
                found.add(f"{mod}: {target}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    found = private_reads(parse_modules(SRC))
    assert sorted(found) == [], "a _-prefixed name read outside its module: give it a public name"


def test_private_reads_through_imports_and_attributes():
    modules = {
        "a": ast.parse("def _f(): pass\ndef _g(): pass\ndef _h(): pass\n_f()\n"),
        "pkg.__init__": ast.parse("from .inner import _j\n"),
        "pkg.inner": ast.parse("def _j(): pass\n"),
        "b": ast.parse(
            """
from hornsafe.a import _f
from hornsafe import a
import hornsafe.a
import hornsafe.pkg.inner as inner


class C:
    _q = 0


def use(c: C):
    return a._g, hornsafe.a._h, inner._j, c._q, C._q, a.__name__
"""
        ),
    }
    assert private_reads(modules) == {
        "b: hornsafe.a._f",
        "b: hornsafe.a._g",
        "b: hornsafe.a._h",
        "b: hornsafe.pkg.inner._j",
        "pkg.__init__: hornsafe.pkg.inner._j",
    }


@pytest.mark.parametrize("package", ["hornsafe", "hornsafe.lra"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
