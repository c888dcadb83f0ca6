"""Every name a module imports is used there or re-exported through __all__."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = sorted((_ROOT / "src" / "edgeideals").glob("*.py")) + sorted(
    (_ROOT / "tests").glob("*.py")
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import except `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [
        f"{name} (line {line})"
        for name, line in sorted(_imported(tree).items())
        if name not in used
    ]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_a_leftover_import():
    source = (
        "from collections import Counter, deque\n"
        "import os.path\n"
        "__all__ = ['exported']\n"
        "from x import exported\n"
        "print(Counter())\n"
    )
    assert unused_imports(source) == ["deque (line 1)", "os (line 2)"]
