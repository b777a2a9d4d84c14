"""Checks on the package source itself."""

import ast
import builtins
import importlib
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _references(node):
    """Every name node references, as a name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _library_names(tree):
    """The objects a module's absolute imports bind, by the name they bind;
    a module this interpreter cannot import binds nothing."""
    scope = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.split(".")[0],
                      alias.name if alias.asname else alias.name.split(".")[0],
                      None) for alias in node.names]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module != "__future__"):
            bound = [(alias.asname or alias.name, node.module, alias.name)
                     for alias in node.names]
        else:
            continue
        for name, module, attr in bound:
            try:
                obj = importlib.import_module(module)
            except ImportError:
                continue
            scope[name] = obj if attr is None else getattr(obj, attr)
    return scope


def _inherited(cls, scope):
    """The attribute names that cls's standard-library and builtin bases
    define; a base defined in the package itself contributes none."""
    names = set()
    for base in cls.bases:
        try:
            obj = eval(compile(ast.Expression(base), "<base>", "eval"),
                       {"__builtins__": builtins}, scope)
        except NameError:
            continue
        names |= set(dir(obj))
    return names


def unreferenced_definitions(modules, exported):
    """(module, name) of each definition in modules, a dict of module name
    -> source, that no code but its own definition references, as a name
    or as an attribute. Definitions are top-level functions and classes
    whose names exported does not hold, written by name, and methods,
    written class.method: the private methods of every class and the
    public methods of the classes exported does not hold. Dunder methods,
    which the language calls, and methods a standard-library base class
    defines, which that class calls, are not counted."""
    defined = []
    used = set()
    for module, source in modules.items():
        tree = ast.parse(source)
        scope = _library_names(tree)
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if not isinstance(stmt, FUNCTIONS + (ast.ClassDef,)):
                used |= _references(stmt)
                continue
            defined.append((module, own))
            if not isinstance(stmt, ast.ClassDef):
                used |= _references(stmt) - {own}
                continue
            inherited = _inherited(stmt, scope)
            for node in stmt.bases + stmt.keywords + stmt.decorator_list:
                used |= _references(node) - {own}
            for item in stmt.body:
                method = item.name if isinstance(item, FUNCTIONS) else None
                used |= _references(item) - {own, method}
                if (method is None or method in inherited
                        or method.startswith("__") and method.endswith("__")
                        or not method.startswith("_") and own in exported):
                    continue
                defined.append((module, f"{own}.{method}"))
    return sorted((module, name) for module, name in defined
                  if name.rsplit(".", 1)[-1] not in used
                  and name not in exported)


def test_unreferenced_definitions_are_found():
    modules = {
        "a.py": ("def used():\n    return 1\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "class Public:\n    pass\n\n"
                 "def via_attribute():\n    pass\n"),
        "b.py": ("from .a import used\nimport a\n\n"
                 "def orphan():\n    return used() + a.via_attribute()\n"),
        "c.py": ("import argparse\n\n"
                 "class Shown:\n"
                 "    def public(self):\n        pass\n"
                 "    def _private(self):\n        pass\n"
                 "    def _called(self):\n        pass\n"
                 "    def __repr__(self):\n        return self._called()\n\n"
                 "class _Parser(argparse.ArgumentParser):\n"
                 "    def error(self, message):\n        raise ValueError\n"
                 "    def recursive_method(self):\n"
                 "        return self.recursive_method()\n\n"
                 "def make():\n    return _Parser()\n"),
    }
    assert unreferenced_definitions(modules, {"Public", "Shown", "make"}) == [
        ("a.py", "recursive"), ("b.py", "orphan"),
        ("c.py", "Shown._private"), ("c.py", "_Parser.recursive_method")]


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
