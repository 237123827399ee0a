"""Every name a package module imports is used in that module.

``__init__.py`` is skipped: its imports are the package's exports.  An
import kept on purpose (a name another module patches, say) is exempt when
its own line carries ``# noqa: F401``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "summ"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        for alias, name in names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import (\n"
        "    Any,\n"
        "    Sequence,  # noqa: F401\n"
        ")\n"
        "import json as js\n"
        "x: Any = js.loads('1')\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


def test_package_modules_have_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
