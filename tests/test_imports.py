"""Every module-level import in ``src/invariance`` is used by its module
or re-exported through its ``__all__``, every other module-level name is
exported or read somewhere in the package, only ``checks/verdict.py``
turns residuals into verdicts or builds a ``CheckPart`` other than through
``CheckPart.of``, no check is an ``assert``, which
``python -O`` removes, ``expr.py`` contracts only by its own
component-wise rule, never through numpy's einsum or matmul, and no state
keyed by ``id`` outlives the objects whose ids it holds, no check
defaults the tolerance or the seed that a scenario sets, and every
function that ``src`` defines runs in the shipped use of the command
line unless it is an error path or a library entry that only tests
reach.  Each name has one import path, its own module's: no package
``__init__`` below ``src/invariance`` binds a name, and every module
imports on its own, in a process that has imported no other."""

import ast
import importlib
import os
import subprocess
import sys
import types
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


def part_constructions(root):
    """``path:line`` of each call of ``CheckPart`` itself, by name or as an
    attribute, in the modules under ``root``."""
    return ["%s:%d" % (path.relative_to(root).as_posix(), n.lineno)
            for path in sorted(root.rglob("*.py"))
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                        str(path)))
            if isinstance(n, ast.Call) and "CheckPart" in (
                getattr(n.func, "attr", None), getattr(n.func, "id", None))]


def test_only_the_verdict_module_builds_a_part():
    assert [f for f in part_constructions(SRC)
            if not f.startswith("checks/verdict.py:")] == []


def test_the_check_sees_a_part_built_by_hand(tmp_path):
    (tmp_path / "a.py").write_text(
        "from verdict import CheckPart\nimport verdict\n"
        "a = CheckPart(passed=False, residual=1.0)\n"
        "b = verdict.CheckPart(True, 0.0)\n"
        "c = CheckPart.of(1.0, 1e-9), 'CheckPart(True, 0.0)'\n")
    assert part_constructions(tmp_path) == ["a.py:3", "a.py:4"]


def assert_statements(root):
    """``path:line`` of each ``assert`` statement in the modules under
    ``root``."""
    return ["%s:%d" % (path.relative_to(root).as_posix(), n.lineno)
            for path in sorted(root.rglob("*.py"))
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                        str(path)))
            if isinstance(n, ast.Assert)]


def test_no_assert_statements():
    assert assert_statements(SRC) == []


def test_the_check_sees_an_assert(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x):\n    assert x, 'message'\n"
        "    if x:\n        assert (x > 1)\n    return 'assert x'\n")
    assert assert_statements(tmp_path) == ["a.py:2", "a.py:4"]


_CONTRACTIONS = ("einsum", "matmul")


def numpy_contractions(path):
    """Lines of the module at ``path`` that hold an ``@`` product or the
    name, attribute, import or string ``einsum`` or ``matmul``."""
    found = []
    for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                str(path))):
        if isinstance(n, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(n.op, ast.MatMult)
        else:
            hit = any(getattr(n, field, None) in _CONTRACTIONS
                      for field in ("id", "attr", "name", "value"))
        if hit:
            found.append(n.lineno)
    return sorted(found)


def test_expr_contracts_by_one_rule():
    assert numpy_contractions(SRC / "expr.py") == []


def test_the_check_sees_a_numpy_contraction(tmp_path):
    module = tmp_path / "a.py"
    module.write_text(
        "import numpy as np\nfrom numpy import einsum\n"
        "def f(a, b):\n    c = a @ b\n    c @= b\n"
        "    return np.einsum('i,i', a, b), np.matmul(a, b), einsum, "
        "getattr(np, 'matmul'), np.dot(a, b)\n")
    assert numpy_contractions(module) == [2, 4, 5, 6, 6, 6, 6]


# the functions of ``src`` that may call ``id``: each keys by ``id`` only
# what lives as long as the call, or (``_mk``) as long as the node that
# holds it.  This list may only shrink.
ID_CALLERS = {"expr.py": ("_mk", "_rewrite", "_post_order", "_build_tape",
                          "_emit_kernel")}


def id_calls(root):
    """``path:function`` (``path:<module>`` at module level) of each use
    of the name ``id`` in the modules under ``root``, a call or the bare
    name handed on, as to ``map``; a use in a nested function counts
    under the outermost function."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        where = path.relative_to(root).as_posix()
        for top in tree.body:
            name = (top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else "<module>")
            found.extend("%s:%s" % (where, name) for n in ast.walk(top)
                         if isinstance(n, ast.Name) and n.id == "id")
    return found


def test_id_keys_no_state_that_outlives_a_call():
    allowed = {"%s:%s" % (path, name) for path, names in ID_CALLERS.items()
               for name in names}
    found = set(id_calls(SRC))
    assert found == allowed


def test_the_check_sees_an_id_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "MEMO = {id(object): 1}\n"
        "def f(x):\n    def g(y):\n        return id(y)\n    return g(x)\n"
        "class C:\n    def m(self):\n        return id(self), 'id(self)'\n"
        "def h(x):\n    return x.id(x)\n"
        "def k(xs):\n    return tuple(map(id, xs))\n")
    assert id_calls(tmp_path) == ["a.py:<module>", "a.py:f", "a.py:C",
                                  "a.py:k"]


# the functions of ``src`` that may default a ``tol`` or a ``seed``: the
# sampler's own seed, which no scenario sets.  This list may only shrink.
DEFAULTED_SETTINGS = ("sample_points",)


def defaulted_settings(root):
    """``path:name`` (``Class.method`` for a method) of each function in
    the modules under ``root`` with a default for a parameter named
    ``tol`` or ``seed``."""
    found = []

    def visit(node, where, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, where, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional)
                                       - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs,
                                                args.kw_defaults)
                    if default is not None]
                if any(arg.arg in ("tol", "seed") for arg in defaulted):
                    found.append("%s:%s%s" % (where, prefix, child.name))
                visit(child, where, prefix + child.name + ".")

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)),
              path.relative_to(root).as_posix(), "")
    return found


def test_no_check_defaults_a_scenario_setting():
    found = defaulted_settings(SRC)
    assert sorted(name.split(":")[1] for name in found) == \
        sorted(DEFAULTED_SETTINGS)


def test_the_check_sees_a_defaulted_setting(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, tol=1e-9):\n    return x\n"
        "def g(tol, seed, n=3, tolerance=1.0, seeds=()):\n"
        "    def inner(*, seed=7):\n        return seed\n"
        "    return inner\n"
        "class C:\n    def m(self, seed=None, /):\n        pass\n"
        "    def k(self, *, seed, tol=None):\n        pass\n")
    assert defaulted_settings(tmp_path) == ["a.py:f", "a.py:g.inner",
                                            "a.py:C.m", "a.py:C.k"]


# functions of ``src`` that the shipped use of the command line never
# runs, so that only tests reach them: error paths, the float kernel's
# emitters for node kinds that no force law holds, and library entries
# that no shipped scenario names.  This list may only shrink.
TEST_ONLY = {
    "expr.py": ("Node.__repr__", "Node.__setattr__", "ParseError.__init__",
                "_emit_comp", "_emit_dot", "_emit_outer", "_emit_transpose",
                "_step_outer", "outer"),
    "ns/closure.py": ("nu_phi2_model",),
    "ns/residual.py": ("rigid_shear",),
    "report.py": ("_name_of",),
}

# the shipped use: every shipped scenario, serial and in two worker
# processes, the demo list and one demo, and one strict check, each
# through ``cli.main``
SHIPPED_USE = """
from importlib import resources
from invariance.cli import main
scenarios = str(resources.files("invariance") / "scenarios")
main(["suite", scenarios, "--json", "--no-timestamp"])
main(["suite", scenarios, "--json", "--no-timestamp", "--jobs", "2"])
main(["demo"])
main(["demo", "classify_strain_rate"])
main(["check", scenarios + "/classify_velocity.json", "--strict"])
"""

# runs ``script`` (argv[1]) under ``sys.setprofile`` and writes the file
# and qualified name of every Python function it called to argv[2]
_PROFILED = r"""
import contextlib, io, sys
ran = set()

def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)

sys.setprofile(profile)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(sys.argv[1], "<use>", "exec"), {})
finally:
    sys.setprofile(None)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        fh.writelines("%s\t%s\n" % (code.co_filename, code.co_qualname)
                      for code in ran)
"""


def defined_functions(root):
    """``path:qualname`` of each function defined at module level or in a
    class body in the modules under ``root``; a function nested in
    another, a lambda and a comprehension are not counted."""
    found = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        bodies = [compile(path.read_text(encoding="utf-8"), str(path),
                          "exec")]
        while bodies:
            for const in bodies.pop().co_consts:
                if not isinstance(const, types.CodeType) \
                        or const.co_name.startswith("<"):
                    continue
                if const.co_flags & 0x2:        # CO_NEWLOCALS: a function
                    found.append("%s:%s" % (where, const.co_qualname))
                else:                           # a class body
                    bodies.append(const)
    return found


def unreached_functions(root, script, tmp_path):
    """``defined_functions(root)`` that never run while ``script`` runs in
    a fresh interpreter with the parent of ``root`` on its import path."""
    out = tmp_path / "ran.txt"
    env = dict(os.environ, PYTHONPATH=str(root.parent))
    subprocess.run([sys.executable, "-c", _PROFILED, script, str(out)],
                   env=env, check=True)
    ran = set()
    for line in out.read_text(encoding="utf-8").splitlines():
        filename, qualname = line.split("\t")
        path = Path(filename).resolve()
        if path.is_relative_to(root):
            ran.add("%s:%s" % (path.relative_to(root).as_posix(), qualname))
    return [name for name in defined_functions(root) if name not in ran]


def test_only_tests_reach_the_listed_functions(tmp_path):
    allowed = {"%s:%s" % (path, name) for path, names in TEST_ONLY.items()
               for name in names}
    assert set(unreached_functions(SRC, SHIPPED_USE, tmp_path)) == allowed


def test_the_check_sees_a_function_only_tests_reach(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(
        "def used():\n    def inner():\n        pass\n"
        "    return [x for x in (1, 2)], (lambda: 0)\n"
        "def spare():\n    pass\n"
        "class C:\n    def m(self):\n        return used()\n"
        "    def n(self):\n        pass\n"
        "    class D:\n        def k(self):\n            pass\n")
    assert defined_functions(package) == ["a.py:used", "a.py:spare",
                                          "a.py:C.m", "a.py:C.n",
                                          "a.py:C.D.k"]
    assert unreached_functions(package, "from pkg.a import C\nC().m()\n",
                               tmp_path) == ["a.py:spare", "a.py:C.n",
                                             "a.py:C.D.k"]


def package_bindings(root):
    """``path:name`` of each name that an ``__init__.py`` below ``root``
    (the package's own aside) binds, by an import, an assignment, a def
    or a class."""
    found = []
    for path in sorted(root.glob("*/**/__init__.py")):
        where = path.relative_to(root).as_posix()
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                    str(path))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                found.append("%s:%s" % (where, n.id))
            elif isinstance(n, ast.alias):
                found.append("%s:%s" % (where, n.asname
                                        or n.name.split(".")[0]))
            elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                found.append("%s:%s" % (where, n.name))
    return found


def test_subpackages_bind_no_names():
    assert len(list(SRC.glob("*/**/__init__.py"))) >= 2
    assert package_bindings(SRC) == []


def test_the_check_sees_a_name_a_subpackage_binds(tmp_path):
    (tmp_path / "__init__.py").write_text('__version__ = "1"\n')
    for sub in ("a", "b", "b/c"):
        (tmp_path / sub).mkdir()
    (tmp_path / "a" / "__init__.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "b" / "__init__.py").write_text(
        "from .m import f, g as h\nimport os.path\n__all__ = ['f']\n")
    (tmp_path / "b" / "c" / "__init__.py").write_text(
        "if True:\n    def k():\n        pass\n")
    assert package_bindings(tmp_path) == [
        "b/__init__.py:f", "b/__init__.py:h", "b/__init__.py:os",
        "b/__init__.py:__all__", "b/c/__init__.py:k"]


def module_names(root):
    """The dotted name of each module under the package ``root``, a
    package by its ``__init__``."""
    names = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__"
                              else parts))
    return names


def test_a_dotted_import_binds_the_module():
    import invariance.checks.classify as m
    assert isinstance(m, types.ModuleType)
    assert m.__name__ == "invariance.checks.classify"
    # ``import a.b.c as m`` reads the attribute ``c`` of ``a.b``: for each
    # module that attribute path ends at the module itself
    for name in module_names(SRC):
        module = importlib.import_module(name)
        top, *path = name.split(".")
        reached = importlib.import_module(top)
        for attr in path:
            reached = getattr(reached, attr)
        assert reached is module, name


# imports each module named in argv[1:] in turn, after dropping every
# module of its top-level package from ``sys.modules``, and prints the
# name and error of each that fails
_ALONE = r"""
import importlib, sys
for name in sys.argv[1:]:
    top = name.split(".")[0]
    for key in [k for k in sys.modules
                if k == top or k.startswith(top + ".")]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print("%s: %r" % (name, exc))
"""


def modules_failing_alone(root):
    """``name: error`` of each module under the package ``root`` that
    fails to import in a process where no other module of the package
    has been imported."""
    env = dict(os.environ, PYTHONPATH=str(root.parent))
    out = subprocess.run([sys.executable, "-c", _ALONE,
                          *module_names(root)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def test_each_module_imports_on_its_own():
    assert len(module_names(SRC)) >= 14
    assert modules_failing_alone(SRC) == []


def test_the_check_sees_an_import_order_dependency(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text("Y = 1\n")
    # ``b`` reads ``pkg.a`` without importing it, so it works only after
    # something else, here the import of ``pkg.a`` before it, has
    (package / "b.py").write_text("import pkg\nX = pkg.a.Y\n")
    (package / "c.py").write_text("from . import a\nZ = a.Y\n")
    failed = modules_failing_alone(package)
    assert [line.split(": ")[0] for line in failed] == ["pkg.b"]
    assert "AttributeError" in failed[0]
