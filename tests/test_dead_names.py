"""Every function, class, method and module-level name defined in the
package has a reader outside the tests.

A definition counts as read when its name is loaded anywhere in the package,
the demos or the benchmark: as a name, as an attribute, as an imported name,
or as the last dotted part of a string constant, so that a spec such as
"Ball.adjacency", which the benchmark resolves with getattr, is a reference.
The tests do not count: a name only they read is code no experiment, demo
or benchmark runs.  Assigning a name does not read it.  Dunder names are
read by the language and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READERS = ("src", "demos", "bench")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of every function, class and method, and of every name a
    module-level assignment binds, leaving out dunders, in line order."""
    tree = ast.parse(source)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = [(node.name, node.lineno) for node in ast.walk(tree) if isinstance(node, defs)]
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            found += [(node.id, node.lineno) for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name)]
    return sorted(((name, line) for name, line in found if not _is_dunder(name)), key=lambda pair: pair[1])


def references(source: str) -> set[str]:
    """Every loaded name and attribute, every imported name, and the last
    dotted part of every string constant."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
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


def sources(root: Path) -> tuple[dict[str, str], list[str]]:
    """The package's sources under `root` by file name, and every other
    source under READERS."""
    package = root / "src" / "hypactions"
    return (
        {path.name: path.read_text() for path in sorted(package.glob("*.py"))},
        [
            path.read_text()
            for top in READERS
            for path in sorted((root / top).rglob("*.py"))
            if path.parent != package
        ],
    )


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


def test_the_check_finds_a_constant_nothing_reads():
    package = {
        "c.py": "__version__ = '1'\n"
                "CAP = 3\n"
                "LOW, HIGH = 0, CAP\n"
                "DEAD = 'dead'\n"
                "DEAD = 'rebound'\n"
                "IMPORTED: int = 2\n"
                "def f():\n"
                "    local = 1\n"
                "    return local\n",
    }
    readers = ["from c import IMPORTED, f\n", "print(LOW)\n", "x.HIGH = 1\n"]
    assert dead_names(package, readers) == ["c.py:3 HIGH", "c.py:4 DEAD", "c.py:5 DEAD"]


def test_the_check_finds_a_name_only_the_tests_read(tmp_path):
    files = {
        "src/hypactions/m.py": "def run(): ...\n"
                               "def tested(): ...\n"
                               "def helper(): ...\n"
                               "class Ball:\n"
                               "    def adjacency(self): ...\n",
        "src/hypactions/cli.py": "from .m import helper\nhelper()\n",
        "tests/test_m.py": "from hypactions.m import Ball, run, tested\ntested(run(Ball))\n",
        "demos/01_run.py": "from hypactions.m import Ball, run\nrun(Ball)\n",
        "bench/tests/test_spec.py": 'SPEC = ("m", "Ball.adjacency")\n',
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert dead_names(*sources(tmp_path)) == ["m.py:2 tested"]


def test_every_defined_name_has_a_reader():
    assert dead_names(*sources(ROOT)) == []
