"""No function, class, method or dataclass field under src/pigat is used only by tests.

A name counts as referenced when the program itself uses it: a name or an
attribute in src/pigat or scripts/, or the console-script entry point in
pyproject.toml. Dunder methods are called by Python and do not count. A
dataclass field counts as used when the program reads an attribute of its
name; assignments alone do not count.

No program module but graph.py itself imports the per-event reference
module, pigat.graph, when it runs, so removing that path deletes code and
changes no import.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pigat"
# Called by argparse.
ALLOWED = {"error"}
# The per-event window path (InteractionGraph, encode_instance,
# Batch.from_instances) stays as the reference that tests compare
# data.build_instances with, and as perfbench's probe targets; only tests
# call these.
REFERENCE_PATH = {"insert", "encode_instance", "from_instances"}
# Generator ground truth that the tests compare a generated log against.
UNREAD_FIELDS = {"GroundTruth.clusters", "GroundTruth.segments"}


def _trees(*dirs: Path) -> list[ast.AST]:
    return [ast.parse(path.read_text(), str(path)) for d in dirs for path in sorted(d.rglob("*.py"))]


def defined_names(tree: ast.AST) -> set[str]:
    """Module-level functions and classes, and the methods of those classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def entry_points() -> set[str]:
    """Function names of the `name = "module:function"` lines in pyproject.toml."""
    return set(re.findall(r'^\S+\s*=\s*"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(), re.M))


def program_names() -> tuple[set[str], set[str]]:
    """(names defined under src/pigat, names the program references)."""
    defined = set().union(*map(defined_names, _trees(PACKAGE)))
    used = set().union(*map(used_names, _trees(PACKAGE, ROOT / "scripts"))) | entry_points()
    return defined, used


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def dataclass_fields(tree: ast.AST) -> set[str]:
    """`Class.field` for every annotated field of a module-level @dataclass."""
    fields = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list)):
            fields.update(
                f"{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
    return fields


def read_attributes(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_program_name_has_a_program_reference():
    defined, used = program_names()
    assert sorted(defined - used - ALLOWED - REFERENCE_PATH) == []


def test_allowlist_holds_only_defined_names_without_a_reference():
    defined, used = program_names()
    assert ALLOWED | REFERENCE_PATH <= defined
    assert not (ALLOWED | REFERENCE_PATH) & used


def test_check_sees_a_test_only_function():
    tree = ast.parse("def helper():\n    pass\n\nclass Box:\n    def open(self):\n        pass\n")
    assert defined_names(tree) == {"helper", "Box", "open"}
    assert not defined_names(tree) <= used_names(tree)


def test_every_dataclass_field_is_read_by_the_program():
    fields = set().union(*map(dataclass_fields, _trees(PACKAGE)))
    read = set().union(*map(read_attributes, _trees(PACKAGE, ROOT / "scripts")))
    unread = {name for name in fields if name.split(".")[1] not in read}
    assert sorted(unread) == sorted(UNREAD_FIELDS)


def test_field_check_sees_a_field_that_is_only_written():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass Box:\n    size: int\n    note: str = ''\n\n"
        "def label(box):\n    box.note = 'x'\n    return box.size\n"
    )
    assert dataclass_fields(tree) == {"Box.size", "Box.note"}
    assert read_attributes(tree) == {"size"}


def runtime_imports(node: ast.AST) -> set[str]:
    """Dotted names of the modules node imports when it runs; `if TYPE_CHECKING:` bodies do not count.

    A relative import is read as one within pigat; `from .x import y` names both pigat.x and pigat.x.y.
    """
    found = set()
    if isinstance(node, ast.Import):
        found = {alias.name for alias in node.names}
    elif isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ["pigat" if node.level else "", node.module]))
        found = {base} | {f"{base}.{alias.name}" for alias in node.names}
    typing_only = isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
    children = node.orelse if typing_only else ast.iter_child_nodes(node)
    return found.union(*map(runtime_imports, children))


def test_no_other_program_module_imports_the_reference_graph_module():
    modules = (path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "graph.py")
    assert [path.name for path in modules if "pigat.graph" in runtime_imports(ast.parse(path.read_text()))] == []


def test_import_check_sees_run_time_imports_only():
    typed = "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .graph import InteractionGraph\n"
    assert "pigat.graph" not in runtime_imports(ast.parse(typed))
    lines = ("from .graph import USER", "from . import graph", "import pigat.graph", "def f():\n    from .graph import USER")
    for line in lines:
        assert "pigat.graph" in runtime_imports(ast.parse(typed + line)), line
