"""Every function, class and method defined in the package has a reader.

A definition counts as read when its name appears anywhere in the package,
the tests, the demos or the benchmark: as a name, as an attribute, or as the
last dotted part of a string constant, so that a spec such as
"Ball.adjacency", which the benchmark resolves with getattr, is a reference.
Dunder methods are called by the language and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypactions"
READERS = ("src", "tests", "demos", "bench")


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of every function, class and non-dunder method, in line order."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        ((node.name, node.lineno) for node in ast.walk(ast.parse(source))
         if isinstance(node, defs) and not (node.name.startswith("__") and node.name.endswith("__"))),
        key=lambda pair: pair[1],
    )


def references(source: str) -> set[str]:
    """Every name, attribute and last dotted part of a string constant."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value.rsplit(".", 1)[-1])
    return found


def dead_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """"file:line name" of each definition in `package` (file name -> source)
    that no source in `package` or `readers` references."""
    read = set().union(*map(references, [*package.values(), *readers]))
    return [
        f"{name}:{line} {defined}"
        for name, source in sorted(package.items())
        for defined, line in definitions(source)
        if defined not in read
    ]


def test_the_check_finds_a_name_nothing_reads():
    package = {
        "m.py": "class Ball:\n"
                "    def adjacency(self): ...\n"
                "    def __len__(self): ...\n"
                "    def dead(self): ...\n"
                "def helper(): ...\n"
                "def unused(): ...\n"
                "class Spare: ...\n",
    }
    readers = ['SPEC = ("groups", "Ball.adjacency")\n', "helper(Ball)\n"]
    assert dead_names(package, readers) == ["m.py:4 dead", "m.py:6 unused", "m.py:7 Spare"]


def test_every_defined_name_has_a_reader():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = [
        path.read_text()
        for top in READERS
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.parent != PACKAGE
    ]
    assert dead_names(package, readers) == []
