"""Source hygiene: every import in the package modules is used and comes
from the standard library, ``cryptography`` or the package itself, every
private function, method or class is named somewhere besides its definition,
every public one is named by the package, the benchmark or the README's
library examples, and every enum member is named as ``Class.MEMBER``
somewhere in the package.

Stdlib only. A name counts as used when it is loaded anywhere in the module,
including inside a string annotation such as ``"TxIndices | None"``. A
private definition (one ``_`` prefix, not a dunder) counts as used when any
package module loads it as a name or an attribute. A public module-level
function or class counts as used when a package module or a non-test
``perfbench`` module loads it, or when a ``python`` block of README "Library
use" names it; those blocks must run. A public method or property of such a
class counts as used only when one of those loads it as an attribute
(``.name``), so a local variable or parameter of the same name does not.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scorechain"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted(
    p
    for p in (ROOT / "perfbench").glob("*.py")
    if not p.name.startswith("test_") and p.name != "conftest.py"
)


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


def imported_modules(tree: ast.Module) -> dict[str, int]:
    """The top-level name of each module imported, with the line that imports
    it; a relative import counts as the package itself."""
    found: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.setdefault(alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom):
            name = "scorechain" if node.level else node.module.split(".")[0]
            found.setdefault(name, node.lineno)
    return found


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


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public module-level function or class, by name, and each public
    method or property of a module-level class, as ``Class.name``, with its
    line."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            found[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds) and not member.name.startswith("_"):
                    found[f"{node.name}.{member.name}"] = member.lineno
    return found


def readme_library_examples() -> list[str]:
    """The fenced python blocks of README "Library use"."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


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


def loaded_attributes(tree: ast.Module) -> set[str]:
    """Each attribute loaded as ``.name``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def referenced_names(tree: ast.Module) -> set[str]:
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return used_names(tree) | attributes


def unused_public_definitions(
    defining: dict[str, ast.Module], users: list[ast.Module]
) -> list[str]:
    """Each public definition in `defining` that no tree in `users` uses: a
    module-level one by any reference, a member only by an attribute load."""
    referenced = set().union(*(referenced_names(tree) for tree in users))
    attributes = set().union(*(loaded_attributes(tree) for tree in users))

    def used(defined: str) -> bool:
        cls, _, member = defined.rpartition(".")
        return member in attributes if cls else defined in referenced

    return sorted(
        f"{name}:{line} {defined}"
        for name, tree in defining.items()
        for defined, line in public_definitions(tree).items()
        if not used(defined)
    )


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


ALLOWED_IMPORTS = sys.stdlib_module_names | {"cryptography", "scorechain"}


def test_imports_are_stdlib_or_cryptography():
    outside = sorted(
        f"{path.name}:{line} {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module, line in imported_modules(ast.parse(path.read_text())).items()
        if module not in ALLOWED_IMPORTS
    )
    assert not outside, "imports outside stdlib and cryptography: " + ", ".join(outside)


def test_checker_sees_every_imported_module():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from cryptography.hazmat.primitives import hashes\n"
        "from .core_types import Block\n"
        "def f() -> None:\n"
        "    import scipy.stats\n"
    )
    assert imported_modules(tree) == {
        "__future__": 1,
        "numpy": 2,
        "os": 3,
        "cryptography": 4,
        "scorechain": 5,
        "scipy": 7,
    }
    assert sorted(set(imported_modules(tree)) - ALLOWED_IMPORTS) == ["numpy", "scipy"]


def test_simulator_and_cli_import_no_numpy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, scorechain.simnet, scorechain.cli; print('numpy' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.strip() == "False"


def test_simulator_and_cli_load_no_process_pool():
    # run_trials imports its pool only when it starts worker processes
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, scorechain.simnet, scorechain.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.strip() == "[]"


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


def test_every_public_definition_is_used():
    defining = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    users = [
        ast.parse(p.read_text(), filename=str(p))
        for p in sorted(PACKAGE.glob("*.py")) + BENCHMARK
    ]
    users += [ast.parse(example) for example in readme_library_examples()]
    unused = unused_public_definitions(defining, users)
    assert not unused, "public definitions named nowhere: " + ", ".join(unused)


def test_checker_sees_public_definitions_and_their_users():
    tree = ast.parse(
        "class Shape:\n"
        "    def area(self) -> float:\n"
        "        return self._side()\n"
        "    def _side(self) -> float:\n"
        "        return 1.0\n"
        "    def __repr__(self) -> str:\n"
        "        return 'Shape'\n"
        "    def perimeter(self) -> float:\n"
        "        def inner() -> None:\n"
        "            pass\n"
        "def make() -> 'Shape':\n"
        "    return Shape()\n"
        "def orphan() -> None:\n"
        "    pass\n"
        "def documented() -> None:\n"
        "    pass\n"
        "class Brush:\n"
        "    @property\n"
        "    def colour(self) -> str:\n"
        "        return 'red'\n"
        "def paint(colour: str) -> str:\n"
        "    return colour\n"
    )
    assert sorted(public_definitions(tree)) == [
        "Brush",
        "Brush.colour",
        "Shape",
        "Shape.area",
        "Shape.perimeter",
        "documented",
        "make",
        "orphan",
        "paint",
    ]
    caller = ast.parse("print(make().area(), paint(Brush))\n")
    example = ast.parse("from shapes import documented\ndocumented()\n")
    # a parameter named like a property is not a use of the property
    assert unused_public_definitions({"shapes.py": tree}, [tree, caller, example]) == [
        "shapes.py:13 orphan",
        "shapes.py:19 Brush.colour",
        "shapes.py:8 Shape.perimeter",
    ]


def test_readme_library_examples_run(tmp_path, monkeypatch):
    examples = readme_library_examples()
    assert len(examples) >= 3
    monkeypatch.chdir(tmp_path)
    for example in examples:
        exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
