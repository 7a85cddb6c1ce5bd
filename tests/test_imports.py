"""Every name a module of raag imports is used in that module.

pyflakes' unused-import check, on the standard library's ast alone. The
package __init__ and raag._kernel are skipped: their imports are their
exports. An import line marked "# noqa: F401" is allowed to go unused,
and only then: a marker on an import the module uses is stale, and it would
hide the import once the use goes.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "raag"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in ("__init__.py", "_kernel.py"))


def imported_names(tree, lines):
    """(bound name, line, marked) of each import outside __future__, where
    marked says whether its line carries noqa: F401."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                marked = "# noqa: F401" in lines[alias.lineno - 1]
                yield (alias.asname or alias.name).split(".")[0], alias.lineno, marked


def used_names(tree):
    """Every name the module reads, annotations written as strings
    included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def test_modules_are_found():
    assert {"graphs.py", "embedding.py", "words.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line, marked in imported_names(tree, text.splitlines())
              if not marked and name not in used]
    assert not unused, f"imported but never used: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_stale_noqa_marker(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = used_names(tree)
    stale = [f"{path.name}:{line} {name}" for name, line, marked in imported_names(tree, text.splitlines())
             if marked and name in used]
    assert not stale, f"marked noqa: F401 but used: {stale}"
