"""Every name a module imports is used there or re-exported through __all__,
and only the suite layer and the front ends import the report rows."""

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


# The algorithms return data; only these modules build or re-export report rows.
_REPORT_LAYER = {"suites", "cli", "__init__"}


def imports_reports(source: str) -> bool:
    """Whether the package module `source` imports from edgeideals.reports."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".reports", "edgeideals.reports"):
                return True
            if module in (".", "edgeideals") and any(a.name == "reports" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "edgeideals.reports" for a in node.names):
                return True
    return False


def test_only_the_suite_layer_imports_reports():
    src = _ROOT / "src" / "edgeideals"
    importers = {p.stem for p in src.glob("*.py") if imports_reports(p.read_text())}
    assert importers <= _REPORT_LAYER, sorted(importers - _REPORT_LAYER)


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("from .reports import VerificationReport\n", True),
        ("from . import reports\n", True),
        ("import edgeideals.reports\n", True),
        ("from edgeideals.reports import RunConfig\n", True),
        ("from .symbolic import edge_ideal\n", False),
        ("from .suites import reports\n", False),
    ],
)
def test_report_import_guard(source, flagged):
    assert imports_reports(source) is flagged


# Public names that no verb reaches but the tests and the benchmark call:
# `lcm_closure` is the closure without symmetry that the Betti tests compare
# with, and `ideal_contains` / `ideal_equal` are the ideal comparisons both use.
_CALLED_FROM_OUTSIDE = {"lcm_closure", "ideal_contains", "ideal_equal"}


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for every name, attribute, import alias and __all__ string."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out += [(name, node.lineno) for name in (alias.name, alias.asname) if name]
    out += [(name, 0) for name in _exported(tree)]
    return out


def unnamed_definitions(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of every function and method, dunders aside, that
    the given modules never name outside its own definition."""
    defs, named = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defs.append((module, node.name, node.lineno, node.end_lineno))
        for name, line in _references(tree):
            named.setdefault(name, []).append((module, line))
    return [
        (module, name, start)
        for module, name, start, end in defs
        if not any(m != module or not start <= line <= end for m, line in named.get(name, ()))
    ]


def test_every_definition_is_named_in_src():
    src = _ROOT / "src" / "edgeideals"
    sources = {p.stem: p.read_text() for p in sorted(src.glob("*.py"))}
    unnamed = unnamed_definitions(sources)
    assert [d for d in unnamed if d[1] not in _CALLED_FROM_OUTSIDE] == []


def test_guard_flags_an_unnamed_definition():
    sources = {
        "a": (
            "__all__ = ['exported']\n"
            "def exported():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class A:\n"
            "    def __eq__(self, other):\n"
            "        return self.method()\n"
            "    def method(self):\n"
            "        return 1\n"
            "    def spare(self):\n"
            "        pass\n"
            "def imported():\n"
            "    pass\n"
        ),
        "b": "from .a import imported as alias\n",
    }
    assert unnamed_definitions(sources) == [("a", "recursive", 4), ("a", "spare", 11)]
