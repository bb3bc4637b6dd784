"""No product code without a reader.

Every module under src/hornsafe/ is parsed with ast.  A top-level
function or class must be named somewhere in src/: by a Name it reads,
an import, or an attribute access (kernel.simplex_feasible).  A method
or class field must be read by an attribute access (x.member) somewhere
in src/; a plain name match would be too loose, since parent, size and
name are also local variables.  Dunder methods are called by Python
itself and are not checked.  Code read only by tests belongs in tests/.

Nor may a module import a name it never reads: every name an import
binds (`import a.b` binds a) must be loaded somewhere in that module or
listed in its __all__.  `from __future__` imports change how the module
compiles and are left out.

The other way round, every name an export list (__all__) offers must
exist: a stale entry breaks only a star import.
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


@pytest.mark.parametrize("package", ["hornsafe", "hornsafe.lra"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
