"""Every module of the package uses each name it imports and each private name it defines,
and none imports scipy; every demo script and test file uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trottersim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((PACKAGE.parents[1] / "demos").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _scipy_imports(source):
    """Lines of every import of scipy or a scipy submodule, at any depth of the tree."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.split(".")[0]))
    return [line for line, root in roots if root == "scipy"]


def _unread_privates(source):
    """Module-level _x defs, classes and assignments that the module itself never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (line, name) for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_checker_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nprint(dumps(1))\n"
    assert _unused_imports(source) == [(1, "os"), (2, "loads")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_test_file_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_a_scipy_import_at_any_depth():
    source = (
        "import os, scipy.linalg as sl\nfrom scipy import optimize\nfrom .scipy import x\n"
        "def f():\n    class K:\n        def g(self):\n            import scipy\n"
    )
    assert _scipy_imports(source) == [1, 2, 7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_scipy(path):
    # scipy is a test dependency only; the package runs on numpy and pyyaml.
    assert _scipy_imports(path.read_text()) == []


def test_checker_flags_an_unread_private_name():
    source = (
        "_A = 1\n_B, c = 2, 3\ndef _f():\n    return _A\nclass _K:\n    pass\n"
        "def g():\n    return _f()\n__all__ = ['g']\n"
    )
    assert _unread_privates(source) == [(2, "_B"), (5, "_K")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_each_private_name(path):
    assert _unread_privates(path.read_text()) == []
