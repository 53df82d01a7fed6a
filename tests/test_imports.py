"""Every module-level import in ``src/invariance`` is used by its module
or re-exported through its ``__all__``, every other module-level name is
exported or read somewhere in the package, and only ``checks/verdict.py``
turns residuals into verdicts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "invariance"


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """Names bound by the module's top-level imports that no ``Name`` node
    of the module reads and ``__all__`` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported, exported = [], _exported(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported
            if name not in used and name not in exported]


def defined_names(tree):
    """Names bound by the module's top-level defs, classes and
    assignments, ``__all__`` and other dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                names.extend(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return [name for name in names if not name.startswith("__")]


def unused_definitions(root):
    """``module.name`` for each top-level name of a module under ``root``
    that its ``__all__`` does not list and that no module under ``root``
    reads, as a name or as an attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(root.rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    found = []
    for path, tree in trees.items():
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        exported = _exported(tree)
        found.extend("%s.%s" % (module, name) for name in defined_names(tree)
                     if name not in exported and name not in read)
    return found


def test_no_unused_module_level_imports():
    found = {str(path.relative_to(SRC)): unused_imports(path)
             for path in sorted(SRC.rglob("*.py"))}
    assert len(found) > 10
    assert not {path: names for path, names in found.items() if names}


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys as system\n"
                      "from math import pi, tau\n"
                      "__all__ = ['tau']\nprint(system.argv, pi)\n")
    assert unused_imports(module) == ["os"]


def test_no_unused_module_level_definitions():
    assert unused_definitions(SRC) == []


def test_the_check_sees_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['public']\nLIMIT = 3\nSPARE, OTHER = 1, 2\n"
        "def public():\n    return LIMIT\n"
        "def helper():\n    pass\n"
        "class Unused:\n    pass\n")
    (tmp_path / "b.py").write_text("import a\nprint(a.helper, OTHER)\n")
    assert unused_definitions(tmp_path) == ["a.SPARE", "a.Unused"]


def verdict_rules(root):
    """``path:line`` of each comparison of the name ``tol`` with <, <=, >
    or >=, and of each ``argmax`` call, in the modules under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for n in ast.walk(tree):
            if isinstance(n, ast.Compare):
                hit = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                          for op in n.ops) and any(
                    isinstance(e, ast.Name) and e.id == "tol"
                    for e in [n.left, *n.comparators])
            else:
                hit = isinstance(n, ast.Call) and "argmax" in (
                    getattr(n.func, "attr", None), getattr(n.func, "id", None))
            if hit:
                found.append("%s:%d" % (path.relative_to(root).as_posix(),
                                        n.lineno))
    return found


def test_only_the_verdict_module_judges_residuals():
    found = verdict_rules(SRC)
    assert any(f.startswith("checks/verdict.py:") for f in found)
    assert [f for f in found if not f.startswith("checks/verdict.py:")] == []


def test_the_check_sees_a_local_verdict_rule(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "def judge(res, tol, tolerance):\n"
        "    ok = res <= tol\n"
        "    if tol > res or 0 < tol < 1:\n"
        "        return np.argmax(res), res.argmax()\n"
        "    return tol == res, res < tolerance, np.argmin(res)\n")
    (tmp_path / "b.py").write_text("from numpy import argmax\n"
                                   "print(argmax([1, 2]))\n")
    assert sorted(verdict_rules(tmp_path)) == [
        "a.py:3", "a.py:4", "a.py:4", "a.py:5", "a.py:5", "b.py:2"]
