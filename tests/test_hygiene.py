"""Cheap guards on the package as a whole."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import choicelattice

PACKAGE = Path(choicelattice.__file__).resolve().parent


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
