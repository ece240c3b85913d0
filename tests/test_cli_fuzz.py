"""Hypothesis fuzz of `run` and `verify`: one change to a valid config or
summary never ends in a traceback.

A change replaces one leaf, deletes one key or adds an unknown key.
Replacement values are wrong-typed values or small ints, never large sizes,
and every config runs with `ball_cap: 5000`, so each run stays small.
"""

import contextlib
import functools
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypactions.cli import main
from test_cli import BASE_CONFIGS

VALUES = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([None, True, False, "x", "3", 1.5, -0.5, [], {}, [1], {"x": 1}]),
)
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
NAMED_PATH = re.compile(r"config error at \S+: ")


def small(cfg):
    return {**json.loads(json.dumps(cfg)), "budgets": {"ball_cap": 5000}}


def places(node, path=()):
    """Every (path, node) below `node`: leaves and containers alike."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from places(child, path + (key,))


@st.composite
def changed(draw, doc):
    """`doc` with one leaf replaced, one key deleted or one unknown key added."""
    doc = json.loads(json.dumps(doc))
    path, node = draw(st.sampled_from(list(places(doc))))
    op = draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "add" and isinstance(node, dict):
        node["unknown_key"] = draw(VALUES)
        return doc
    if not path:
        return draw(VALUES) if op == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(VALUES)
    return doc


def cli(argv):
    """main(argv) with its output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@FUZZ
@given(data=st.data(), name=st.sampled_from(sorted(BASE_CONFIGS)))
def test_changed_configs_exit_cleanly(data, name):
    cfg = data.draw(changed(small(BASE_CONFIGS[name])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, err = cli(["run", str(path), "-o", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code == 1:
        assert NAMED_PATH.search(err) or "experiment failed" in err, err


@functools.cache
def summary_of(name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(small(BASE_CONFIGS[name])))
        assert cli(["run", str(path), "-o", str(Path(tmp) / "out")])[0] == 0
        return json.loads((Path(tmp) / "out" / "summary.json").read_text())


@FUZZ
@given(data=st.data(), name=st.sampled_from(sorted(BASE_CONFIGS)))
def test_tampered_summaries_verify_cleanly(data, name):
    summary = data.draw(changed(summary_of(name)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "summary.json"
        path.write_text(json.dumps(summary))
        code, _ = cli(["verify", str(path)])
    assert code in (0, 1)
