"""Every imported name is used: a type deleted from one module leaves no stale import behind.

Walks each module with the stdlib ast.  A name counts as used when it
appears anywhere in the module as an ast.Name, the root of an attribute
chain included.  Package __init__ modules import only to re-export, so they
are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*(ROOT / "src" / "treetrace").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_detected():
    assert unused_imports("import os\nfrom typing import Mapping, Sequence\nx: Sequence\n") == [
        "line 1: os", "line 2: Mapping"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.zeros\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
