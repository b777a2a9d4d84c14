"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "privlens"


def unused_imports(path):
    """(line, name) of each name the module imports and never references;
    a dotted import binds its first component."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_import_no_unused_names():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = {p.name: unused_imports(p) for p in modules}
    assert not {name: u for name, u in unused.items() if u}


def foreign_imports(source):
    """(line, top-level name) of each absolute import outside the standard
    library; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names:
                found.append((node.lineno, top))
    return found


def test_foreign_imports_are_found():
    source = ("import math, numpy.linalg\nfrom scipy import stats\n"
              "from . import universe\nfrom .probability import TOL\n"
              "from __future__ import annotations\n")
    assert foreign_imports(source) == [(1, "numpy"), (2, "scipy")]


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, so the package may import
    # nothing else, whatever this interpreter happens to have installed.
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: foreign_imports(p.read_text(encoding="utf-8"))
             for p in modules}
    assert not {name: f for name, f in found.items() if f}


def unreferenced_definitions(modules, exported):
    """(module, name) of each top-level function or class in modules, a
    dict of module name -> source, whose name exported does not hold and
    no top-level statement but its own definition references, as a name
    or as an attribute."""
    defined = []
    used = set()
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = stmt.name
                defined.append((module, own))
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    return sorted((module, name) for module, name in defined
                  if name not in used and name not in exported)


def test_unreferenced_definitions_are_found():
    modules = {
        "a.py": ("def used():\n    return 1\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "class Public:\n    pass\n\n"
                 "def via_attribute():\n    pass\n"),
        "b.py": ("from .a import used\nimport a\n\n"
                 "def orphan():\n    return used() + a.via_attribute()\n"),
    }
    assert unreferenced_definitions(modules, {"Public"}) == [
        ("a.py", "recursive"), ("b.py", "orphan")]


def test_every_definition_is_exported_or_referenced():
    # A function only the tests call is a second way into what the package
    # already computes; the tests reach the package through what it uses.
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert modules
    assert not unreferenced_definitions(modules, exported)
