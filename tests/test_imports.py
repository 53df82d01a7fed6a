"""Every module-level import in ``src/invariance`` is used by its module
or re-exported through its ``__all__``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "invariance"


def unused_imports(path):
    """Names bound by the module's top-level imports that no ``Name`` node
    of the module reads and ``__all__`` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported
            if name not in used and name not in exported]


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
