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
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [entry for path in paths
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


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_every_exported_function_is_called():
    # classes are exempt: witness and result types arrive as return values
    exported = _exported()
    functions = {name for name in exported
                 if inspect.isfunction(getattr(choicelattice, name))}
    called = _called_names(PACKAGE / "cli.py")
    for path in TESTS.rglob("*.py"):
        called |= _called_names(path)
    assert sorted(functions - called) == []


# cli.rcf_json writes the rcf file format, which the command line only reads,
# and cli.model_json the model file as a dict, which the command line writes
# as text; the benchmark writes its inputs with them.
WRITERS = {"cli.model_json", "cli.rcf_json"}


def test_every_module_function_is_exported_or_used():
    # a copy left behind when a function moves to tests/ is used by nothing
    exported, defined, users = _exported(), [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef):
                defined.append((node.name, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    users.setdefault(sub.id, set()).add(owner)
                elif isinstance(sub, ast.Attribute):
                    users.setdefault(sub.attr, set()).add(owner)
    unused = {owner for name, owner in defined if name not in exported
              and not users.get(name, set()) - {owner}}
    assert sorted(unused - WRITERS) == []
