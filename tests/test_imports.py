"""Every name a module in src/, tests/ or demos/ imports is used in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "demos")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, with their line numbers.

    A name listed in the module's ``__all__`` counts as read, so a package
    ``__init__`` may import names only to export them.
    """
    imported = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_scanner_flags_unused_and_honours_all():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from x import a, b as c, d\n"
        "__all__ = ['d']\n"
        "print(np.zeros(1), c)\n"
    )
    assert unused_imports(source) == ["a (line 4)", "os (line 2)"]


def test_no_unused_imports():
    found = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            unused = unused_imports(path.read_text())
            if unused:
                found[str(path.relative_to(ROOT))] = unused
    assert not found, f"imported names never used: {found}"
