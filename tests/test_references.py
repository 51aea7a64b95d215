"""No function, class, method or dataclass field under src/pigat is used only by tests.

A name counts as referenced when the program itself uses it: a name or an
attribute in src/pigat or scripts/, or the console-script entry point in
pyproject.toml. Dunder methods are called by Python and do not count. A
dataclass field counts as used when the program reads an attribute of its
name; assignments alone do not count.
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
