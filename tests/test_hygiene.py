"""Cheap guards on the package as a whole."""

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

import choicelattice

PACKAGE = Path(choicelattice.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def test_imports_only_the_standard_library():
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import choicelattice, choicelattice.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            cwd=PACKAGE.parent)
    loaded = {name.split(".")[0] for name in json.loads(result.stdout)}
    assert loaded - {"choicelattice"} <= set(sys.stdlib_module_names)


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = [entry for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" for entry in _unused_imports(path)]
    assert unused == []


def _called_names(path):
    """Every name called in the file, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_every_exported_function_is_called():
    # classes are exempt: witness and result types arrive as return values
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    functions = {name for name in exported
                 if inspect.isfunction(getattr(choicelattice, name))}
    called = _called_names(PACKAGE / "cli.py")
    for path in TESTS.rglob("*.py"):
        called |= _called_names(path)
    assert sorted(functions - called) == []
