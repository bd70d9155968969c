"""Source hygiene: every import in the package modules is used, every
private function, method or class is named somewhere besides its definition,
and every enum member is named as ``Class.MEMBER`` somewhere in the package.

Stdlib only. ``__init__.py`` is skipped by the import check, since its
imports are re-exports. A name counts as used when it is loaded anywhere in
the module, including inside a string annotation such as
``"TxIndices | None"``. A private definition (one ``_`` prefix, not a dunder)
counts as used when any package module loads it as a name or an attribute.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scorechain"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each _-prefixed, non-dunder function, method or class, with its line."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }


def enum_members(tree: ast.Module) -> dict[tuple[str, str], int]:
    """Each (class, member) of a class deriving directly from Enum, with its line."""
    members: dict[tuple[str, str], int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "Enum" for base in node.bases
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            members[node.name, target.id] = stmt.lineno
    return members


def member_references(tree: ast.Module) -> set[tuple[str, str]]:
    """Each (name, attribute) loaded as ``name.attribute``."""
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }


def referenced_names(tree: ast.Module) -> set[str]:
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return used_names(tree) | attributes


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        f"{path.name}:{line} {name}"
        for name, line in imported_names(tree).items()
        if name not in used
    )
    assert not unused, "unused imports: " + ", ".join(unused)


def test_checker_sees_string_annotations_and_unused_names():
    tree = ast.parse(
        "from typing import Mapping, Sequence\n"
        "import json\n"
        "def f(x: 'Mapping[str, int] | None') -> None:\n"
        "    pass\n"
    )
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["Sequence", "json"]


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    unreferenced = sorted(
        f"{name}:{line} {defined}"
        for name, tree in trees.items()
        for defined, line in private_definitions(tree).items()
        if defined not in referenced
    )
    assert not unreferenced, "private definitions named nowhere: " + ", ".join(unreferenced)


def test_checker_sees_private_definitions_and_their_references():
    tree = ast.parse(
        "class _Kept:\n"
        "    def __init__(self) -> None:\n"
        "        self._used()\n"
        "    def _used(self) -> None:\n"
        "        pass\n"
        "    def _dead(self) -> '_Kept':\n"
        "        pass\n"
        "def _orphan() -> None:\n"
        "    pass\n"
    )
    assert sorted(private_definitions(tree)) == ["_Kept", "_dead", "_orphan", "_used"]
    assert sorted(set(private_definitions(tree)) - referenced_names(tree)) == [
        "_dead",
        "_orphan",
    ]


def test_every_enum_member_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    referenced = set().union(*(member_references(tree) for tree in trees.values()))
    members = {
        (name, cls, member): line
        for name, tree in trees.items()
        for (cls, member), line in enum_members(tree).items()
    }
    assert members
    unreferenced = sorted(
        f"{name}:{line} {cls}.{member}"
        for (name, cls, member), line in members.items()
        if (cls, member) not in referenced
    )
    assert not unreferenced, "enum members named nowhere: " + ", ".join(unreferenced)


def test_checker_sees_enum_members_and_their_references():
    tree = ast.parse(
        "from enum import Enum\n"
        "class Colour(Enum):\n"
        "    RED = 'red'\n"
        "    GREEN = 'green'\n"
        "    def paint(self) -> None:\n"
        "        pass\n"
        "class Plain:\n"
        "    BLUE = 'blue'\n"
        "def pick() -> 'Colour':\n"
        "    return Colour.RED\n"
    )
    assert sorted(enum_members(tree)) == [("Colour", "GREEN"), ("Colour", "RED")]
    assert sorted(set(enum_members(tree)) - member_references(tree)) == [("Colour", "GREEN")]
