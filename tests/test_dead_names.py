"""Every function, class and module-level name defined in the package has
a reader outside the tests, every method and class-body field is read as an
attribute, and every defaulted parameter is passed by some call.

A definition counts as read when it is loaded anywhere in the package, the
demos or the benchmark: as a bare name, as an imported name, as an
attribute of its module (`metrics.four_point_delta`, `hypactions.cli.main`),
or named as "module.name" in a string constant, as the benchmark's spans
name what they wrap.  An attribute of another object, or a string such as a
summary key, that only shares the name is some other binding and does not
count.  A member (a method or a field of a
class body) counts as read only when it is loaded as an attribute or named
as "Class.member" in a string, so that a spec such as "Ball.adjacency",
which the benchmark resolves with getattr, is a reference: a bare-name load
is some other binding.  Fields that a method reads through
`self.__dict__` or `asdict` are read together.  A defaulted parameter (a
dataclass field is a member, not a parameter) counts as passed when a call
of a function or method of its name passes it by keyword or by position; a
class name calls its `__init__`, and a call with `*` or `**` passes
everything.  The tests do not count: a name, member or parameter only they
reach is code no experiment, demo or benchmark runs.  Assigning a name does
not read it.  Dunder names are read by the language and are not checked.

The rules match names, not bindings, and know no types: a member is read
when any object's attribute of its name is, so a method that overrides a
live method of the same name passes even when nothing calls it through its
class (an `SL2Oracle.parse_element`, which no config reaches, would pass
beside the free and BS oracles' live ones), and a parameter passes when a
same-named function is passed it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READERS = ("src", "demos", "bench")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _bound(stmt) -> list[tuple[str, int]]:
    """(name, line) of every name an assignment statement binds, else []."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [(node.id, node.lineno) for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def _classes(tree) -> list[ast.ClassDef]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of every function and class other than a method, and of
    every name a module-level assignment binds, leaving out dunders, in line
    order."""
    tree = ast.parse(source)
    methods = {id(stmt) for cls in _classes(tree) for stmt in cls.body}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = [(node.name, node.lineno) for node in ast.walk(tree) if isinstance(node, defs) and id(node) not in methods]
    found += [pair for stmt in tree.body for pair in _bound(stmt)]
    return sorted(((name, line) for name, line in found if not _is_dunder(name)), key=lambda pair: pair[1])


def _dotted_strings(tree) -> set[str]:
    """The last two dotted parts of every string constant that has a dot."""
    return {".".join(node.value.split(".")[-2:]) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value}


def references(source: str) -> set[str]:
    """Every loaded bare name and every imported name; "owner.attribute" for
    every attribute loaded from a name or an attribute; and the last two
    dotted parts of every string constant that has a dot."""
    tree = ast.parse(source)
    found = _dotted_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if isinstance(owner, (ast.Name, ast.Attribute)):
                found.add(f"{owner.id if isinstance(owner, ast.Name) else owner.attr}.{node.attr}")
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def dead_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """"file:line name" of each definition in `package` (file name -> source)
    that no source in `package` or `readers` references, by its name or as
    "module.name"."""
    read = set().union(*map(references, [*package.values(), *readers]))
    return [
        f"{name}:{line} {defined}"
        for name, source in sorted(package.items())
        for defined, line in definitions(source)
        if defined not in read and f"{name.removesuffix('.py')}.{defined}" not in read
    ]


def members(source: str) -> list[tuple[str, str, int]]:
    """(Class.member, member, line) of every method, and of every field a
    class body assigns unless a method reads them all through `__dict__` or
    `asdict`, leaving out dunders."""
    found = []
    for cls in _classes(ast.parse(source)):
        bound = []
        read_whole = any(
            isinstance(node, ast.Attribute) and node.attr == "__dict__"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "asdict"
            for node in ast.walk(cls)
        )
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.append((stmt.name, stmt.lineno))
            elif not read_whole:
                bound += _bound(stmt)
        found += [(f"{cls.name}.{name}", name, line) for name, line in bound if not _is_dunder(name)]
    return sorted(found, key=lambda member: member[2])


def attribute_references(source: str) -> set[str]:
    """Every loaded attribute, and the last two dotted parts of every string
    constant that has a dot."""
    tree = ast.parse(source)
    return _dotted_strings(tree) | {node.attr for node in ast.walk(tree)
                                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def dead_members(package: dict[str, str], readers: list[str]) -> list[str]:
    """"file:line Class.member" of each member in `package` that no source in
    `package` or `readers` reads as an attribute or names in a string."""
    read = set().union(*map(attribute_references, [*package.values(), *readers]))
    return [
        f"{name}:{line} {qualified}"
        for name, source in sorted(package.items())
        for qualified, member, line in members(source)
        if member not in read and qualified not in read
    ]


def defaulted_parameters(source: str) -> list[tuple[str, str, str, int | None, int]]:
    """(callee, function, parameter, position, line) of every parameter with
    a default.  `callee` is the name a call uses: the class name for an
    `__init__`.  `position` counts the arguments a call writes, so a
    method's first parameter is not counted unless it is a staticmethod;
    it is None for a keyword-only parameter."""
    tree = ast.parse(source)
    owner = {id(stmt): cls.name for cls in _classes(tree) for stmt in cls.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(fn))
        label = f"{cls}.{fn.name}" if cls else fn.name
        callee = cls if cls and fn.name == "__init__" else fn.name
        positional = [*fn.args.posonlyargs, *fn.args.args]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        if cls and not static:
            positional = positional[1:]
        first_default = len(positional) - len(fn.args.defaults)
        found += [(callee, label, arg.arg, i, fn.lineno) for i, arg in enumerate(positional) if i >= first_default]
        found += [(callee, label, arg.arg, None, fn.lineno)
                  for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
    return found


def passed_arguments(source: str) -> set[tuple[str, object]]:
    """(called name, keyword or position) of every argument of every call
    through a name or an attribute; (called name, "*") for a call with `*`
    or `**`."""
    found = set()
    for call in ast.walk(ast.parse(source)):
        if not isinstance(call, ast.Call) or not isinstance(call.func, (ast.Name, ast.Attribute)):
            continue
        name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
            found.add((name, "*"))
        found.update((name, i) for i in range(len(call.args)))
        found.update((name, kw.arg) for kw in call.keywords)
    return found


def unpassed_parameters(package: dict[str, str], readers: list[str]) -> list[str]:
    """"file:line function(parameter)" of each defaulted parameter in
    `package` that no call in `package` or `readers` passes."""
    passed = set().union(*map(passed_arguments, [*package.values(), *readers]))
    return [
        f"{name}:{line} {label}({parameter})"
        for name, source in sorted(package.items())
        for callee, label, parameter, position, line in defaulted_parameters(source)
        if not {(callee, "*"), (callee, parameter), (callee, position)} & passed
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
    assert dead_names(package, readers) == ["m.py:6 unused", "m.py:7 Spare"]
    assert dead_members(package, readers) == ["m.py:4 Ball.dead"]  # a method is a member


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


def test_the_check_finds_a_name_only_an_attribute_or_a_key_of_another_binding_reads():
    package = {
        "metrics.py": "def orbit_distance(): ...\n"
                      "def kept(): ...\n"
                      "def spanned(): ...\n"
                      "LIMIT = 1\n",
    }
    readers = ["print(res.orbit_distance, {'orbit_distance': 1})\n",
               "import metrics\nmetrics.kept()\n",
               'SPANS = [("metrics", "spanned", "metrics.spanned")]\n',
               "import hypactions.metrics\nhypactions.metrics.LIMIT\n"]
    assert dead_names(package, readers) == ["metrics.py:1 orbit_distance"]


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


def test_the_check_finds_a_member_nothing_reads_as_an_attribute():
    package = {
        "m.py": "class Report:\n"
                "    k: int\n"
                "    ok_flag: bool = True\n"
                "    def ok(self): ...\n"
                "    def __len__(self): ...\n"
                "    def spec(self): ...\n"
                "    def called(self): ...\n"
                "class Row:\n"
                "    a: int\n"
                "    def to_json(self):\n"
                "        return dict(self.__dict__)\n"
                "def ok(): ...\n"
                "def build(r):\n"
                "    return r.called()\n",
    }
    readers = ["print(ok(), k, build, Report, Row(1).to_json())\n",
               "r.k = 1\n",
               'SPEC = ("m", "Report.spec")\n',
               'STATUS = "ok_flag"\n']
    assert dead_members(package, readers) == ["m.py:2 Report.k", "m.py:3 Report.ok_flag", "m.py:4 Report.ok"]


def test_the_check_finds_a_default_no_call_passes():
    package = {
        "p.py": "def scan(x, tol=1e-9, max_iter=10):\n"
                "    return x\n"
                "def compare(r, s, *, threshold=None, strict=False): ...\n"
                "class Space:\n"
                "    def __init__(self, rows, validate=True, name=''): ...\n"
                "    def project(self, f, steps=3): ...\n"
                "    @staticmethod\n"
                "    def make(n, rng=None): ...\n"
                "def spread(a, b=1): ...\n",
    }
    readers = ["scan(1, 1e-6)\n",
               "compare(r, s, threshold=2)\n",
               "Space(rows, False)\n",
               "space.project(f, 4)\n",
               "Space.make(3)\n",
               "spread(*args)\n"]
    assert unpassed_parameters(package, readers) == [
        "p.py:1 scan(max_iter)",
        "p.py:3 compare(strict)",
        "p.py:5 Space.__init__(name)",
        "p.py:8 Space.make(rng)",
    ]


def test_every_defined_name_has_a_reader():
    assert dead_names(*sources(ROOT)) == []


def test_every_member_is_read_as_an_attribute():
    assert dead_members(*sources(ROOT)) == []


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters(*sources(ROOT)) == []
