"""Every exported name serves a user.

The users of this library are its examples, its benchmarks, the
repository benchmark under ``perfbench/`` and the paper-claim tests.  A
name in any ``__all__`` of ``repro`` or its subpackages must be used by
one of them, or by a reached definition of a ``src/repro`` module that
one of them reaches (transitively, one top-level definition at a time),
or sit on :data:`KEEP` with the reason it stays.  Test-only uses do not
count: code that only the unit tests call belongs in the tests.

The scan is syntactic.  A definition's uses are the identifiers it
loads, the attributes it reads, the names it imports and the dotted
names spelled in its string literals (``monkeypatch`` targets), so a
matching attribute name anywhere counts as a use: the test can miss an
unused name, never flag a used one.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil
import re

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
USERS = sorted([*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/*.py"),
                *ROOT.glob("perfbench/*.py"),
                ROOT / "tests" / "test_paper_claims.py"])

# Exported names that no user reaches but that stay, one reason each.
KEEP: dict = {}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _uses(node: ast.AST) -> set:
    """Identifiers loaded, attributes read, names imported and dotted
    names in string literals anywhere under ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and _DOTTED.fullmatch(n.value)):
            out.update(n.value.split("."))
    return out


def _definitions():
    """Name -> the top-level definitions of that name in the non-package
    modules of ``src/repro``, and the uses of module-level code that
    runs on import (neither a definition, an import nor ``__all__``)."""
    defs: dict = {}
    on_import = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
                if "__all__" not in names:
                    for name in names:
                        defs.setdefault(name, []).append(node)
            elif not (isinstance(node, (ast.Import, ast.ImportFrom))
                      or isinstance(node, ast.Expr)
                      and isinstance(node.value, ast.Constant)):
                on_import |= _uses(node)
    return defs, on_import


def reached_names() -> set:
    """Every identifier that a user reaches, directly or through the
    definitions it uses."""
    defs, reached = _definitions()
    for path in USERS:
        reached |= _uses(ast.parse(path.read_text()))
    todo = list(reached)
    while todo:
        for node in defs.get(todo.pop(), ()):
            new = _uses(node) - reached
            reached |= new
            todo.extend(new)
    return reached


def exported_names() -> dict:
    """Name -> the modules whose ``__all__`` lists it, over ``repro``
    and every module under it."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    exported: dict = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            exported.setdefault(name, []).append(module.__name__)
    return exported


def test_every_exported_name_has_a_user():
    reached = reached_names()
    unreached = {name: modules for name, modules in exported_names().items()
                 if name not in reached and name not in KEEP}
    assert not unreached, (
        "exported names that no example, benchmark, perfbench file or "
        f"paper-claim test reaches: {unreached}; delete them or add each "
        "to KEEP with its reason")


def test_keep_list_is_exported_and_unreached():
    exported = exported_names()
    reached = reached_names()
    assert all(reason.strip() for reason in KEEP.values())
    assert not [n for n in KEEP if n not in exported or n in reached]


def test_top_level_exports_are_imported_by_a_user():
    """``repro.__all__`` lists exactly the names that the README's code,
    the examples, benchmarks, perfbench and paper-claim tests take from
    ``repro``."""
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [path.read_text() for path in USERS]
    imported = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "repro":
                imported |= {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "repro"):
                imported.add(node.attr)
    submodules = {info.name for info in pkgutil.iter_modules(repro.__path__)}
    assert sorted(repro.__all__) == sorted(imported - submodules)
