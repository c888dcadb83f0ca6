"""Every name a module imports is used there or re-exported through __all__;
only the suite layer and the front ends import the report rows; and every
function, method and dataclass field in the package is named or read in the
package itself, apart from an allow-list of names that tests or the benchmark
read."""

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


# Names that no verb reaches but the tests or the benchmark read, each with
# the reason it stays.
_CALLED_FROM_OUTSIDE = {
    "lcm_closure": "the closure without symmetry that the Betti tests compare with",
    "hochster_betti_table": "the independent oracle that the Betti tests compare with",
    "parse_ideal": "the tests build their ideals with it",
    "render_graph_text": "the tests build graph files with it; a failing row will carry it",
    "EvenColonResult.direct": "bench/workloads.py checks it against its reference colon",
}


def _dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _definitions(tree: ast.Module):
    """(kind, name, start, end) of every function, method and dataclass field,
    dunders aside; kind is 'function', 'method' or 'field', and a field's
    name is qualified by its class."""
    out = []

    def visit(node, in_class: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    kind = "method" if in_class is not None else "function"
                    out.append((kind, child.name, child.lineno, child.end_lineno))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                if _dataclass(child):
                    for item in child.body:
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            name = f"{child.name}.{item.target.id}"
                            out.append(("field", name, item.lineno, item.lineno))
                visit(child, child)
            else:
                visit(child, in_class)

    visit(tree, None)
    return out


def _references(module: str, tree: ast.Module) -> list[tuple[str, str, int]]:
    """(kind, name, line) of what names a definition: 'bare' names, 'import'
    aliases with their source module's last part, 'attr' reads of any object
    and 'qualified' reads `<module>.<name>`.  `__init__`'s imports re-export
    and name nothing, and no string (such as `__all__`) names anything."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(("bare", node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                out.append(("attr", node.attr, node.lineno))
            if isinstance(node.value, ast.Name):
                out.append(("qualified", f"{node.value.id}.{node.attr}", node.lineno))
        elif isinstance(node, ast.ImportFrom) and module != "__init__":
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                out.append(("import", f"{source}.{alias.name}", node.lineno))
    return out


def unnamed_definitions(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of every definition that the given modules never
    name outside its own definition.

    - A function counts as named by its bare name in its own module, by an
      import from its module, or as `<module>.<name>`.  An attribute of the
      same name on some other object does not name it.
    - A method counts as named by any attribute access or bare use of its
      name.  Two methods of the same name in different classes are not told
      apart: that needs types, which the syntax tree does not have.
    - A dataclass field counts as read only by an attribute read of its
      name.  Passing it to the constructor by keyword builds it, not reads
      it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = [(m, *ref) for m, tree in trees.items() for ref in _references(m, tree)]
    out = []
    for module, tree in trees.items():
        for kind, name, start, end in _definitions(tree):
            if kind == "function":
                wanted = {("import", f"{module}.{name}"), ("qualified", f"{module}.{name}")}
                local = {("bare", name)}
            elif kind == "method":
                wanted, local = {("bare", name), ("attr", name)}, set()
            else:
                wanted, local = {("attr", name.split(".")[1])}, set()
            if not any(
                ((rkind, rname) in wanted or (m == module and (rkind, rname) in local))
                and (m != module or not start <= line <= end)
                for m, rkind, rname, line in refs
            ):
                out.append((module, name, start))
    return out


def test_every_definition_is_named_in_src():
    src = _ROOT / "src" / "edgeideals"
    sources = {p.stem: p.read_text() for p in sorted(src.glob("*.py"))}
    unnamed = unnamed_definitions(sources)
    assert sorted(name for _, name, _ in unnamed) == sorted(_CALLED_FROM_OUTSIDE), unnamed


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
    assert unnamed_definitions(sources) == [
        ("a", "exported", 2), ("a", "recursive", 4), ("a", "spare", 11)
    ]


def test_guard_ignores_what_init_reexports():
    sources = {
        "__init__": "from .a import shown\n__all__ = ['shown']\n",
        "a": "def shown():\n    pass\n",
    }
    assert unnamed_definitions(sources) == [("a", "shown", 1)]


def test_guard_sees_a_function_behind_a_property_of_its_name():
    sources = {
        "a": (
            "def regularity(x):\n"
            "    return 0\n"
            "def called():\n"
            "    pass\n"
            "def qualified():\n"
            "    pass\n"
            "class T:\n"
            "    @property\n"
            "    def regularity(self):\n"
            "        return 1\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import called\n"
            "t.called\n"
            "print(t.regularity)\n"
            "a.qualified()\n"
            "called()\n"
        ),
    }
    assert unnamed_definitions(sources) == [("a", "regularity", 1)]


def test_guard_flags_a_dataclass_field_that_nothing_reads():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class R:\n"
            "    read: int\n"
            "    built: int\n"
            "    def total(self):\n"
            "        return self.read\n"
            "print(R(read=1, built=2).total())\n"
        ),
    }
    assert unnamed_definitions(sources) == [("a", "R.built", 5)]
