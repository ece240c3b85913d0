import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypactions.cli import (
    EXPERIMENTS,
    _delta_inputs,
    _json_pieces,
    _json_text,
    _parser,
    _replay_cone_off,
    main,
    parse_config,
    validate_config,
)
from hypactions.metrics import cone_off, quadruple_defect
from oracles import adjacency_naive, cone_off_edges_naive, graph_metric_naive

BASE_CONFIGS = {
    "delta": {
        "format": 1,
        "group": {"kind": "free", "rank": 2},
        "experiment": "delta",
        "parameters": {"radius": 2, "mode": "exhaustive"},
        "seed": 0,
    },
    "tau": {
        "format": 1,
        "group": {"kind": "free", "rank": 2},
        "experiment": "tau",
        "parameters": {"g": "aba^-1", "horizon": 5},
        "seed": 0,
    },
    "compress": {
        "format": 1,
        "group": {"kind": "free", "rank": 2},
        "experiment": "compress",
        "parameters": {
            "families": [{"w": "ab^3", "cap": 2}, {"w": "ab^9", "cap": 3}],
            "alpha": 0.0005,
            "k_max": 6,
        },
        "seed": 0,
    },
    "borel-order": {
        "format": 1,
        "group": {"kind": "free", "rank": 2},
        "experiment": "borel-order",
        "parameters": {
            "r": [1, 2, 3],
            "s": [1, 1, 1],
            "families": ["ab", "ab^2", "a^2b"],
            "N": [1, 1, 1],
        },
        "seed": 0,
    },
    "qm-certify": {
        "format": 1,
        "group": {"kind": "bs", "m": 2, "n": 3},
        "experiment": "qm-certify",
        "parameters": {"g": "t", "radius": 3},
        "seed": 0,
    },
    "sl2-embed": {
        "format": 1,
        "group": {"kind": "sl2", "field": {"d": 2}},
        "experiment": "sl2-embed",
        "parameters": {"x": "sqrt2-1", "radius": 1},
        "seed": 0,
    },
    "tightspan": {
        "format": 1,
        "group": {"kind": "free", "rank": 2},
        "experiment": "tightspan",
        "parameters": {"points": 4, "trials": 5, "proj_trials": 5},
        "seed": 0,
    },
    "cone-off": {
        "format": 1,
        "group": {"kind": "free", "rank": 2},
        "experiment": "cone-off",
        "parameters": {"radius": 3, "orbit": "a", "A": 1},
        "seed": 0,
    },
    "isotropy-probe": {
        "format": 1,
        "group": {"kind": "free", "rank": 2},
        "experiment": "isotropy-probe",
        "parameters": {"radius": 2, "D": 2, "pairs": 4},
        "seed": 0,
    },
}


def run_config(tmp_path, cfg, name="cfg"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}.out"
    code = main(["run", str(cfg_path), "-o", str(out)])
    return code, out


@pytest.mark.parametrize("name", sorted(BASE_CONFIGS))
def test_run_and_verify_each_experiment(tmp_path, name, capsys):
    code, out = run_config(tmp_path, BASE_CONFIGS[name], name)
    assert code == 0
    assert [path.name for path in out.iterdir()] == ["summary.json"]  # a run's only output
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    assert summary["format"] == 1
    assert summary["config"] == BASE_CONFIGS[name]  # config echoed verbatim
    capsys.readouterr()
    vcode = main(["verify", str(summary_path)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert vcode == 0
    assert lines and all(line.startswith("PASS") for line in lines)


def test_schema_prints_json(capsys):
    assert main(["schema"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert "experiment" in blob and "group" in blob


def test_validation_errors_list_paths(tmp_path, capsys):
    bad = {"format": 2, "group": {"kind": "nope"}, "experiment": "wat", "seed": "x"}
    problems = validate_config(bad)
    joined = " ".join(problems)
    for path in ("format", "group.kind", "experiment", "seed"):
        assert path in joined
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(bad))
    assert main(["run", str(cfg_path)]) == 1


def test_budget_exceeded_exit_code(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIGS["delta"]))
    cfg["parameters"]["radius"] = 5
    cfg["budgets"] = {"ball_cap": 50}
    code, out = run_config(tmp_path, cfg, "tiny")
    assert code == 2
    assert [path.name for path in out.iterdir()] == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "budget-exceeded"


def _exits_2_before_the_distance_matrix(tmp_path, monkeypatch, group, parameters, error, points):
    import hypactions.cli

    def no_matrix(ball):
        raise AssertionError("distance matrix built for a config over the quadruple cap")

    monkeypatch.setattr(hypactions.cli, "graph_metric_matrix", no_matrix)
    monkeypatch.setattr(hypactions.cli, "free_ball_distance_matrix", no_matrix)
    cfg = {"format": 1, "group": group, "experiment": "delta", "parameters": parameters,
           "budgets": {"quadruple_cap": 1000}}
    code, out = run_config(tmp_path, cfg, "over-cap")
    assert code == 2
    assert [path.name for path in out.iterdir()] == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "budget-exceeded"
    assert summary["error"] == error
    assert summary["extent"] == {"points": points}


def test_sampled_count_over_the_quadruple_cap_exits_2_before_drawing(tmp_path, monkeypatch):
    _exits_2_before_the_distance_matrix(
        tmp_path, monkeypatch, {"kind": "free", "rank": 2},
        {"radius": 2, "mode": "sampled", "count": 400_000_000},
        "400000000 ordered quadruples exceed cap 1000", 17)


@pytest.mark.parametrize("parameters, error", [
    ({"radius": 2, "mode": "sampled", "count": 400_000_000}, "400000000 ordered quadruples exceed cap 1000"),
    ({"radius": 2, "mode": "exhaustive"}, "83521 ordered quadruples exceed cap 1000"),
])
def test_bs_quadruples_over_the_cap_exit_2_before_the_graph_metric(tmp_path, monkeypatch, parameters, error):
    _exits_2_before_the_distance_matrix(
        tmp_path, monkeypatch, {"kind": "bs", "m": 2, "n": 3}, parameters, error, 17)


def _tightspan_with(tree_points, quadruple_cap):
    return _with("tightspan", lambda c: (c["parameters"].update(tree_points=tree_points),
                                         c.update(budgets={"quadruple_cap": quadruple_cap})))


def test_tightspan_over_the_quadruple_cap_exits_2_before_drawing(tmp_path, monkeypatch):
    import hypactions.cli

    def no_draw(n, rng):
        raise AssertionError("metric drawn for a config over the quadruple cap")

    monkeypatch.setattr(hypactions.cli, "random_rational_metric", no_draw)
    monkeypatch.setattr(hypactions.cli, "random_tree_metric", no_draw)
    code, out = run_config(tmp_path, _tightspan_with(60, 1000), "over-cap")
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "budget-exceeded"
    assert summary["error"] == "12960000 ordered quadruples exceed cap 1000"  # 60^4, and the config's cap
    assert summary["extent"] == {"points": 60}


def test_tightspan_scans_its_tree_within_the_config_cap(tmp_path):
    # 130^4 = 285,610,000 quadruples: over four_point_delta's default cap, within the config's
    code, out = run_config(tmp_path, _tightspan_with(130, 10**12), "ts130")
    assert code == 0
    est = json.loads((out / "summary.json").read_text())["result"]["tree_sample_delta"]
    assert (est["delta"], est["quadruples_checked"]) == (0.0, 130**4)


def test_reruns_are_byte_identical(tmp_path):
    for name in ("delta", "tightspan", "qm-certify", "cone-off"):
        _, out1 = run_config(tmp_path, BASE_CONFIGS[name], f"{name}-1")
        _, out2 = run_config(tmp_path, BASE_CONFIGS[name], f"{name}-2")
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


@pytest.mark.parametrize("name", sorted(BASE_CONFIGS))
def test_summary_is_one_line_of_compact_json(tmp_path, name):
    _, out = run_config(tmp_path, BASE_CONFIGS[name], name)
    text = (out / "summary.json").read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_package_and_pyproject_versions_agree():
    import tomllib

    import hypactions

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == hypactions.__version__


def test_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 1


def test_verify_rejects_budget_summaries(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIGS["delta"]))
    cfg["parameters"]["radius"] = 5
    cfg["budgets"] = {"ball_cap": 50}
    _, out = run_config(tmp_path, cfg, "tiny")
    assert main(["verify", str(out / "summary.json")]) == 1


def test_time_cap_budget(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIGS["delta"]))
    cfg["budgets"] = {"time_cap": 0.0}
    code, out = run_config(tmp_path, cfg, "slow")
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "budget-exceeded"
    took = re.fullmatch(r"run took (\S+)s, over the time cap 0\.0s", summary["error"])
    assert float(took[1]) > 0.0
    assert float(took[1]) == summary["extent"]["elapsed_seconds"]


def test_probe_cap_stops_the_k80_compress_run(tmp_path):
    cfg = {
        "format": 1,
        "group": {"kind": "free", "rank": 2},
        "experiment": "compress",
        "parameters": {"families": [{"w": "ab^3", "cap": 2}, {"w": "ab^9", "cap": 3}], "k_max": 80},
        "budgets": {"probe_cap": 300},
        "seed": 0,
    }
    code, out = run_config(tmp_path, cfg, "k80")
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "budget-exceeded"
    assert summary["error"] == "compressed length probe budget 300 exhausted"
    assert summary["extent"] == {"depth_reached": 33, "positions": 269}


def _with_closed_stdout(*argv):
    """Run the console entry point with the read end of its stdout pipe
    closed before it writes."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        return subprocess.run([sys.executable, "-m", "hypactions", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)


def test_a_closed_stdout_ends_schema_without_a_traceback():
    proc = _with_closed_stdout("schema")
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_a_closed_stdout_keeps_the_verdict_of_verify(tmp_path):
    _, out = run_config(tmp_path, BASE_CONFIGS["tau"], "tau")
    path = out / "summary.json"
    honest = _with_closed_stdout("verify", str(path))
    summary = json.loads(path.read_text())
    summary["result"]["exact"] += 1
    path.write_text(json.dumps(summary))
    forged = _with_closed_stdout("verify", str(path))
    assert [(proc.returncode, proc.stderr) for proc in (honest, forged)] == [(0, b""), (1, b"")]


def _cone_off_naive(cfg):
    """The ball, the orbit and the naive pairs of a cone-off config, as `run` picks them."""
    params = cfg["parameters"]
    oracle = parse_config(cfg)[0].oracle
    ball = oracle.enumerate_ball(params["radius"])
    adj = adjacency_naive(ball)
    D0 = graph_metric_naive(adj)
    h = oracle.parse_element(params["orbit"])
    powers = {h**k for k in range(-params["radius"], params["radius"] + 1)}
    orbit = [g for g in ball.elements if g in powers]
    orbit_dist = [min((D0[ball.index[g]][v] for g in orbit), default=math.inf) for v in range(len(ball))]
    allowed = [d > params["A"] for d in orbit_dist]
    return ball, orbit, D0, allowed, cone_off_edges_naive(adj, D0, allowed)


def _first_row(rows, length=1):
    """The index of the first row with at least `length` entries."""
    return next(i for i, row in enumerate(rows) if len(row) >= length)


@pytest.mark.parametrize("A", [0, 1])
@pytest.mark.parametrize("group, radius, orbit", [
    ({"kind": "bs", "m": 2, "n": 3}, 3, "t"),
    ({"kind": "bs", "m": 2, "n": 3}, 4, "t"),
    ({"kind": "bs", "m": 1, "n": 2}, 4, "at"),
    ({"kind": "free", "rank": 2}, 4, "a"),
], ids=["BS23-R3-t", "BS23-R4-t", "BS12-R4-at", "F2-R4-a"])
def test_cone_off_edges_are_the_naive_pairs_as_rows(group, radius, orbit, A):
    cfg = _with("cone-off", lambda c: c.update(group=group, parameters={"radius": radius, "orbit": orbit, "A": A}))
    ball, orbit_elements, _, _, pairs = _cone_off_naive(cfg)
    assert pairs
    # the array is the naive pair list, in its order; the rows group it by first index
    assert cone_off(ball, orbit_elements, A).new_edges.tolist() == [list(pair) for pair in pairs]
    rows = [[y for x, y in pairs if x == i] for i in range(len(ball))]
    c = parse_config(cfg)[0]
    for result in (EXPERIMENTS["cone-off"].run(c), _replay_cone_off(c, None)[0]):
        assert result["edges"] == rows
        assert result["new_edges"] == len(pairs)


@pytest.mark.parametrize("parameters, n", [
    ({"radius": 0, "orbit": "a", "A": 0}, 1),
    ({"radius": 3, "orbit": "a", "A": 8}, 53),
], ids=["radius-0", "no-new-edges"])
def test_cone_off_without_new_edges_writes_one_empty_row_per_vertex(parameters, n):
    cfg = _with("cone-off", lambda c: c.update(parameters=parameters))
    ball, orbit, _, _, pairs = _cone_off_naive(cfg)
    assert (len(ball), pairs) == (n, [])
    assert cone_off(ball, orbit, parameters["A"]).new_edges.shape == (0, 2)
    c = parse_config(cfg)[0]
    for result in (EXPERIMENTS["cone-off"].run(c), _replay_cone_off(c, None)[0]):
        assert (result["edges"], result["new_edges"]) == ([[]] * n, 0)


def test_verify_cone_off_rejects_an_edge_whose_geodesics_meet_the_orbit(tmp_path, capsys):
    # a pair outside the A-neighborhood, at distance >= 2, that is no edge:
    # every geodesic between its ends meets the neighborhood
    ball, _, D0, allowed, pairs = _cone_off_naive(BASE_CONFIGS["cone-off"])
    edges = set(pairs)
    x, y = next(
        (x, y) for x in range(len(ball)) for y in range(x + 1, len(ball))
        if allowed[x] and allowed[y] and D0[x][y] >= 2 and (x, y) not in edges
    )

    def forge(result):
        result["edges"][x] = sorted([*result["edges"][x], y])

    code, lines = _verify(_forged(tmp_path, BASE_CONFIGS["cone-off"], forge), capsys)
    assert code == 1
    assert _fails(lines) == _rederives("edges")


def test_verify_cone_off_rejects_a_missing_avoiding_edge(tmp_path, capsys):
    def forge(result):
        del result["edges"][_first_row(result["edges"])][0]

    code, lines = _verify(_forged(tmp_path, BASE_CONFIGS["cone-off"], forge), capsys)
    assert code == 1
    assert _fails(lines) == _rederives("edges")


def test_verify_cone_off_rejects_a_label_outside_the_ball(tmp_path, capsys):
    def forge(result):
        result["edges"][_first_row(result["edges"])][0] = "b^9"

    code, lines = _verify(_forged(tmp_path, BASE_CONFIGS["cone-off"], forge), capsys)
    assert code == 1
    assert _fails(lines) == _rederives("edges")


def _with(name, change):
    cfg = json.loads(json.dumps(BASE_CONFIGS[name]))
    change(cfg)
    return cfg


MALFORMED = [
    ("group.rank", _with("delta", lambda c: c["group"].update(rank="x"))),
    ("group.m", _with("qm-certify", lambda c: c["group"].update(m="a"))),
    ("parameters.g", _with("tau", lambda c: c["parameters"].pop("g"))),
    ("parameters.g", _with("qm-certify", lambda c: c["parameters"].pop("g"))),
    ("parameters.families", _with("compress", lambda c: c["parameters"].pop("families"))),
    ("parameters.families", _with("borel-order", lambda c: c["parameters"].pop("families"))),
    ("parameters.radius", _with("isotropy-probe", lambda c: c["parameters"].update(radius=0))),
    ("parameters.radus", _with("delta", lambda c: c["parameters"].update(radus=1))),
    ("group.kind", _with("sl2-embed", lambda c: c.update(group={"kind": "free", "rank": 2}))),
    ("group.kind", _with("compress", lambda c: c.update(group={"kind": "bs", "m": 2, "n": 3}))),
    ("seed", _with("delta", lambda c: c.update(seed=True))),
    ("parameters.tol", _with("tightspan", lambda c: c["parameters"].update(tol=1e-9))),  # gone in 0.5.0
    ("parameters.radius", _with("delta", lambda c: c["parameters"].update(radius="3"))),
    ("parameters.families[1].cap", _with("compress", lambda c: c["parameters"]["families"][1].update(cap=0))),
    ("parameters.qm.brooks", _with("qm-certify", lambda c: c["parameters"].update(qm={"brooks": 3}))),
    ("budgets.thread_cap", _with("delta", lambda c: c.update(budgets={"thread_cap": 2}))),
    ("group.field.d", _with("sl2-embed", lambda c: c["group"]["field"].update(d=4))),
    ("parameters.qm", _with("qm-certify", lambda c: c.update(group={"kind": "free", "rank": 2},
                                                             parameters={"g": "ab", "radius": 2}))),
    ("parameters.qm", _with("qm-certify", lambda c: c["parameters"].update(qm={"brooks": "ab"}))),
    ("parameters.length", _with("qm-certify", lambda c: c.update(group={"kind": "free", "rank": 2}, parameters={
        "g": "ab", "radius": 2, "qm": {"brooks": "ab"}, "length": "t-syllable"}))),
    ("parameters.alpha", _with("compress", lambda c: c["parameters"].update(alpha=math.nan))),
    ("parameters.D", _with("isotropy-probe", lambda c: c["parameters"].update(D=math.nan))),
    ("parameters.A", _with("cone-off", lambda c: c["parameters"].update(A=math.inf))),
    ("parameters.A", _with("cone-off", lambda c: c["parameters"].update(A=-math.inf))),
    ("parameters.A", _with("cone-off", lambda c: c["parameters"].update(A=10**400))),  # past the float range
    ("parameters.x", _with("sl2-embed", lambda c: c["parameters"].update(x="1/0"))),
    ("parameters.x", _with("sl2-embed", lambda c: c["parameters"].update(x="sqrt3-1"))),
    ("parameters.points", _with("tightspan", lambda c: c["parameters"].update(points=129))),
    # words outside the group, or a counting word that reduces to 1, are config errors too
    ("parameters.qm.brooks", _with("qm-certify", lambda c: c.update(group={"kind": "free", "rank": 2}, parameters={
        "g": "ab", "qm": {"brooks": "c"}}))),
    ("parameters.qm.brooks", _with("qm-certify", lambda c: c.update(group={"kind": "free", "rank": 2}, parameters={
        "g": "ab", "qm": {"brooks": "aA"}}))),
    ("parameters.g", _with("qm-certify", lambda c: c.update(group={"kind": "free", "rank": 2}, parameters={
        "g": "zz", "qm": {"brooks": "ab"}}))),
    ("parameters.g", _with("qm-certify", lambda c: c["parameters"].update(g="b"))),
    ("parameters.power", _with("qm-certify", lambda c: c["parameters"].update(power=8))),  # gone in 0.4.0
    ("parameters.g", _with("tau", lambda c: c["parameters"].update(g="zz"))),
    ("parameters.orbit", _with("cone-off", lambda c: c["parameters"].update(orbit="zz"))),
    ("parameters.orbit", _with("cone-off", lambda c: c.update(group={"kind": "bs", "m": 2, "n": 3},
                                                              parameters={"orbit": "a^"}))),
    ("parameters.m_cap", _with("qm-certify", lambda c: c["parameters"].update(m_cap=2))),  # gone in 0.5.0
]


@pytest.mark.parametrize("path, cfg", MALFORMED)
def test_malformed_config_exits_1_and_names_its_path(tmp_path, capsys, path, cfg):
    assert any(p.startswith(f"{path}:") for p in validate_config(cfg))
    code, out = run_config(tmp_path, cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error at {path}:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_tightspan_accepts_up_to_128_points():
    # past 128 points the distinct-point redraw of a random metric takes
    # about 2e5 whole-set draws at 200 points and never ends from 1,682
    assert validate_config(_with("tightspan", lambda c: c["parameters"].update(points=128))) == []
    assert validate_config(_with("tightspan", lambda c: c["parameters"].update(points=1))) == []


def test_main_builds_its_parser_once_and_dispatches_to_the_current_command(tmp_path, monkeypatch, capsys):
    import hypactions.cli

    assert main(["schema"]) == 0
    assert _parser() is _parser()
    calls = []
    monkeypatch.setattr(hypactions.cli, "cmd_run", lambda args: calls.append(args.config) or 7)
    assert main(["run", str(tmp_path / "cfg.json")]) == 7
    assert calls == [str(tmp_path / "cfg.json")]


def test_parse_config_types_and_defaults():
    c, problems = parse_config(BASE_CONFIGS["cone-off"])
    assert problems == []
    assert c.params == {"radius": 3, "orbit": "a", "A": 1.0}
    assert type(c.params["A"]) is float
    assert c.budgets == {"ball_cap": 2_000_000, "quadruple_cap": 200_000_000, "probe_cap": 2_000_000, "time_cap": None}
    assert c.seed == 0 and c.raw is BASE_CONFIGS["cone-off"]


def test_schema_declares_every_experiment(capsys):
    main(["schema"])
    blob = json.loads(capsys.readouterr().out)
    assert set(blob["experiment"]) == set(EXPERIMENTS)
    assert blob["experiment"]["sl2-embed"]["groups"] == ["sl2"]
    assert blob["experiment"]["delta"]["parameters"]["radius"] == {"type": "int", "bound": ">= 0", "default": 3}
    assert blob["experiment"]["tau"]["parameters"]["g"] == {"type": "string", "required": True}
    assert set(blob["group"]) == {"free", "bs", "sl2"}


def _verify(path, capsys):
    capsys.readouterr()
    code = main(["verify", str(path)])
    return code, capsys.readouterr().out.strip().splitlines()


def _fails(lines):
    return [line for line in lines if line.startswith("FAIL")]


def _rederives(*keys):
    return [f"FAIL  {key} re-derives from the config" for key in keys]


def _canonical(summary):
    """`summary` as the text `run` writes, which verify first compares as a whole."""
    return _json_text(summary) + "\n"


# a forged summary with spaces after the separators, and one in the text `run` writes
WRITERS = (json.dumps, _canonical)


def _forged(tmp_path, cfg, forge, name="forged", write=json.dumps):
    """Run `cfg`, apply `forge` to the summary's result and write it back as `write(summary)`."""
    code, out = run_config(tmp_path, cfg, name)
    assert code == 0
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    forge(summary["result"])
    summary_path.write_text(write(summary))
    return summary_path


REDERIVED = sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", REDERIVED)
def test_verify_fails_an_extra_result_key(tmp_path, capsys, name):
    for write in WRITERS:
        path = _forged(tmp_path, BASE_CONFIGS[name], lambda result: result.update(extra=1), write=write)
        code, lines = _verify(path, capsys)
        assert code == 1
        assert _fails(lines) == _rederives("extra")


@pytest.mark.parametrize("name", REDERIVED)
def test_verify_fails_each_deleted_result_key(tmp_path, capsys, name):
    _, out = run_config(tmp_path, BASE_CONFIGS[name], name)
    summary = json.loads((out / "summary.json").read_text())
    for key in summary["result"]:
        for write in WRITERS:
            path = _forged(tmp_path, BASE_CONFIGS[name], lambda result: result.pop(key), f"{name}-{key}", write)
            code, lines = _verify(path, capsys)
            assert code == 1
            assert _rederives(key)[0] in lines


@pytest.mark.parametrize("name", sorted(BASE_CONFIGS))
def test_verify_prints_the_same_lines_for_an_indented_honest_summary(tmp_path, capsys, name):
    # the indented text differs from what `run` writes, so verify compares key by key
    _, out = run_config(tmp_path, BASE_CONFIGS[name], name)
    compact = _verify(out / "summary.json", capsys)
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(json.loads((out / "summary.json").read_text()), indent=2, sort_keys=True))
    assert _verify(indented, capsys) == compact
    assert compact[0] == 0 and all(line.startswith("PASS") for line in compact[1])


def test_verify_encodes_an_honest_summary_once(tmp_path, capsys, monkeypatch):
    import hypactions.cli

    _, out = run_config(tmp_path, BASE_CONFIGS["cone-off"], "cone-off")
    text = (out / "summary.json").read_text()
    summary = json.loads(text)
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(summary, indent=2, sort_keys=True))
    encoded = []

    def counted(value):
        encoded.append(_json_text(value))
        return encoded[-1]

    monkeypatch.setattr(hypactions.cli, "_json_text", counted)
    assert _verify(out / "summary.json", capsys)[0] == 0
    # the summary holding the fresh result, once, in pieces that leave out its keys and braces
    assert len(text) / 2 < sum(map(len, encoded)) < len(text)
    encoded.clear()
    # a file that does not match: then both sides of every result key
    assert _verify(indented, capsys)[0] == 0
    assert sum(map(len, encoded)) > len(text) + len(_json_text(summary["result"]))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES, st.integers(0, 3))
def test_json_pieces_join_to_the_text_run_writes(value, depth):
    assert "".join(_json_pieces(value, depth)) == _json_text(value)


@pytest.mark.parametrize("name", sorted(BASE_CONFIGS))
def test_json_pieces_of_each_summary_join_to_its_file(tmp_path, name):
    _, out = run_config(tmp_path, BASE_CONFIGS[name], name)
    text = (out / "summary.json").read_text()
    assert "".join(_json_pieces(json.loads(text), 2)) + "\n" == text


def test_verify_delta_rejects_a_self_consistent_fabricated_block(tmp_path, capsys):
    _, out = run_config(tmp_path, BASE_CONFIGS["delta"], "delta")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    # a 4-cycle: sides 1, diagonals 2, four-point defect 1
    summary["result"]["witness_distances"] = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    summary["result"]["delta"].update(raw_max=1.0, delta=1.0)
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("delta", "witness_distances")


@pytest.mark.parametrize("bad_witness", [
    lambda w, n: [*w[:3], -1],
    lambda w, n: [*w[:3], n],
    lambda w, n: [float(w[0]), *w[1:]],
    lambda w, n: [True, *w[1:]],
    lambda w, n: w[:3],
], ids=["minus-one", "n", "float", "bool", "three-entries"])
def test_verify_delta_takes_only_four_int_indices_inside_the_ball(tmp_path, capsys, bad_witness):
    # -1 would wrap to the last point in numpy, and 1.0 or true would pass for 1
    def forge(result):
        result["delta"]["witness"] = bad_witness(result["delta"]["witness"], result["ball_size"])

    code, lines = _verify(_forged(tmp_path, BASE_CONFIGS["delta"], forge), capsys)
    assert code == 1
    assert _fails(lines) == _rederives("delta")
    assert capsys.readouterr().err == ""


def test_verify_delta_refuses_a_negative_index_that_numpy_would_wrap(tmp_path, capsys):
    from hypactions.metrics import free_ball_distance_matrix

    ball = parse_config(BASE_CONFIGS["delta"])[0].oracle.enumerate_ball(2)
    D = free_ball_distance_matrix(ball)
    quad = (0, 0, 0, len(ball) - 1)  # what numpy reads for (0, 0, 0, -1); its defect is 0

    def forge(result):
        result["delta"].update(witness=[0, 0, 0, -1], witness_labels=[ball.words[i] for i in quad],
                               raw_max=0.0, delta=0.0)
        result["witness_distances"] = [[float(D[a, b]) for b in quad] for a in quad]

    code, lines = _verify(_forged(tmp_path, BASE_CONFIGS["delta"], forge), capsys)
    assert code == 1
    assert _fails(lines) == _rederives("delta", "witness_distances")


PROVED = "raw_max is the maximum: the witness reaches it and every defect is at most 2 delta_0 = {}"


# an exhaustive summary adds the claims of the basepoint-0 scan (n^3 defects)
@pytest.mark.parametrize("group, parameters, claims", [
    ({"kind": "free", "rank": 2}, {"radius": 2}, ["raw_max is at least the largest defect at basepoint 0, 0.0",
                                                  PROVED.format(0.0)]),
    ({"kind": "bs", "m": 2, "n": 3}, {"radius": 2, "mode": "sampled", "count": 500}, []),
], ids=["exhaustive", "sampled"])
def test_verify_delta_replays_the_witness_without_scanning(tmp_path, capsys, monkeypatch, group, parameters, claims):
    import hypactions.cli

    _, out = run_config(tmp_path, _with("delta", lambda c: c.update(group=group, parameters=parameters)), "delta")

    def no_scan(*args, **kwargs):
        raise AssertionError("verify ran the four-point scan")

    monkeypatch.setattr(hypactions.cli, "four_point_delta", no_scan)
    code, lines = _verify(out / "summary.json", capsys)
    assert code == 0
    assert lines == [f"PASS  {key} re-derives from the config"
                     for key in ("ball_size", "metric", "delta", "witness_distances")] + [f"PASS  {c}" for c in claims]


def test_verify_delta_refuses_a_raw_max_beaten_at_basepoint_0(tmp_path, capsys):
    # a BS(1, 2) R4 summary forged to the witness (7, 5, 1, 0), whose own
    # defect 0.5 it claims as the maximum, with that quadruple's distances
    # and labels: the witness replays, but basepoint 0 alone reaches 2
    cfg = _with("delta", lambda c: c.update(group={"kind": "bs", "m": 1, "n": 2}, parameters={"radius": 4}))
    ball, D, _ = _delta_inputs(parse_config(cfg)[0])
    quad = (7, 5, 1, 0)
    assert quadruple_defect(D, quad) == 0.5

    def forge(result):
        assert result["delta"]["raw_max"] == 3.0
        result["delta"].update(witness=list(quad), witness_labels=[ball.words[i] for i in quad],
                               raw_max=0.5, delta=0.5)
        result["witness_distances"] = [[float(D[a, b]) for b in quad] for a in quad]

    code, lines = _verify(_forged(tmp_path, cfg, forge), capsys)
    assert code == 1
    assert _fails(lines) == ["FAIL  raw_max is at least the largest defect at basepoint 0, 2.0"]

    # the honest summary passes the same claim
    _, out = run_config(tmp_path, cfg, "honest")
    code, lines = _verify(out / "summary.json", capsys)
    assert code == 0
    assert lines[-1] == "PASS  raw_max is at least the largest defect at basepoint 0, 2.0"


# the proof line where 2 delta_0 <= raw_max, and silence where it is not
@pytest.mark.parametrize("group, radius, at_0, raw_max", [
    ({"kind": "free", "rank": 2}, 3, 0.0, 0.0),
    ({"kind": "bs", "m": 1, "n": 2}, 3, 1.0, 2.0),
    ({"kind": "bs", "m": 2, "n": 3}, 4, 1.5, 3.0),
    ({"kind": "bs", "m": 2, "n": 3}, 3, 1.5, 2.0),
    ({"kind": "bs", "m": 1, "n": 2}, 4, 2.0, 3.0),
], ids=["F2-R3", "BS12-R3", "BS23-R4", "BS23-R3", "BS12-R4"])
def test_verify_delta_says_the_maximum_is_proved_only_when_twice_delta_0_reaches_it(
        tmp_path, capsys, group, radius, at_0, raw_max):
    cfg = _with("delta", lambda c: c.update(group=group, parameters={"radius": radius},
                                            budgets={"quadruple_cap": 10**9}))
    _, out = run_config(tmp_path, cfg, "delta")
    assert json.loads((out / "summary.json").read_text())["result"]["delta"]["raw_max"] == raw_max
    code, lines = _verify(out / "summary.json", capsys)
    assert code == 0
    claims = [line for line in lines if "re-derives" not in line]
    assert claims == [f"PASS  raw_max is at least the largest defect at basepoint 0, {at_0}"] + (
        [f"PASS  {PROVED.format(2 * at_0)}"] if 2 * at_0 <= raw_max else [])


def test_verify_delta_proves_no_maximum_for_a_forged_witness(tmp_path, capsys):
    # BS(1, 2) R3: delta_0 = 1 and the maximum is 2
    cfg = _with("delta", lambda c: c.update(group={"kind": "bs", "m": 1, "n": 2}, parameters={"radius": 3}))
    ball, D, _ = _delta_inputs(parse_config(cfg)[0])
    quad = (3, 18, 40, 5)
    assert quadruple_defect(D, quad) == 1.5
    at_0 = "PASS  raw_max is at least the largest defect at basepoint 0, 1.0"

    # a witness of defect 1.5 under the true raw_max 2.0 does not replay to it
    path = _forged(tmp_path, cfg, lambda result: result["delta"].update(witness=list(quad)))
    code, lines = _verify(path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("delta", "witness_distances")
    assert lines[-1] == at_0

    # a whole forged block claiming 1.5, between delta_0 and 2 delta_0,
    # replays and passes every check, but nothing says it is the maximum
    def forge(result):
        result["delta"].update(witness=list(quad), witness_labels=[ball.words[i] for i in quad],
                               raw_max=1.5, delta=1.5)
        result["witness_distances"] = [[float(D[a, b]) for b in quad] for a in quad]

    code, lines = _verify(_forged(tmp_path, cfg, forge, "forged-block"), capsys)
    assert code == 0
    assert lines[-1] == at_0
    assert not any("is the maximum" in line for line in lines)


def test_verify_cone_off_derives_the_edges_without_cone_off(tmp_path, capsys, monkeypatch):
    import hypactions.cli

    cfg = _with("cone-off", lambda c: c.update(group={"kind": "bs", "m": 2, "n": 3},
                                               parameters={"radius": 3, "orbit": "t", "A": 0}))
    _, out = run_config(tmp_path, cfg, "cone")
    assert json.loads((out / "summary.json").read_text())["result"]["new_edges"] > 0

    def no_cone_off(*args, **kwargs):
        raise AssertionError("verify called metrics.cone_off")

    monkeypatch.setattr(hypactions.cli, "cone_off", no_cone_off)
    code, lines = _verify(out / "summary.json", capsys)
    assert code == 0
    assert lines == [f"PASS  {key} re-derives from the config" for key in (
        "radius", "A", "orbit_size", "new_edges", "warnings", "vertices", "orbit_distance", "edges")]


@pytest.mark.parametrize("parameters, forge", [
    ({"radius": 2}, lambda est: est.update(quadruples_checked=7, sampled=True, seed=99)),
    ({"radius": 2, "mode": "sampled", "count": 500}, lambda est: est.update(seed=99)),
], ids=["exhaustive", "sampled"])
def test_verify_delta_checks_the_scan_metadata(tmp_path, capsys, parameters, forge):
    cfg = _with("delta", lambda c: c.update(group={"kind": "bs", "m": 1, "n": 2}, parameters=parameters))
    path = _forged(tmp_path, cfg, lambda result: (result.update(metric="word"), forge(result["delta"])))
    code, lines = _verify(path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("metric", "delta")


def test_verify_cone_off_rederives_the_edge_list_and_its_metadata(tmp_path, capsys):
    cfg = _with("cone-off", lambda c: c.update(group={"kind": "bs", "m": 2, "n": 3},
                                               parameters={"radius": 3, "orbit": "t", "A": 0}))

    def forge(result):
        rows = result["edges"]
        assert (len(rows), sum(map(len, rows))) == (len(result["vertices"]), 383) and result["warnings"]
        i = _first_row(rows)
        result["edges"] = [rows[i][:1] if k == i else [] for k in range(len(rows))]  # one edge
        result.update(new_edges=1, warnings=[], orbit_size=result["orbit_size"] + 1, radius=2, A=1.0)

    code, lines = _verify(_forged(tmp_path, cfg, forge), capsys)
    assert code == 1
    assert _fails(lines) == _rederives("radius", "A", "orbit_size", "new_edges", "warnings", "edges")


@pytest.mark.parametrize("bad_entry", [
    lambda j, n: -1,
    lambda j, n: n,
    lambda j, n: float(j),
    lambda j, n: True,
    lambda j, n: [j],
], ids=["minus-one", "n", "float", "bool", "one-element"])
def test_verify_cone_off_takes_only_int_index_pairs_inside_the_ball(tmp_path, capsys, bad_entry):
    # row i and its entry j index the pair (i, j): -1 would wrap to the last
    # vertex in numpy, and 1.0 would pass for 1
    def forge(result):
        row = result["edges"][_first_row(result["edges"])]
        row[0] = bad_entry(row[0], len(result["vertices"]))

    code, lines = _verify(_forged(tmp_path, BASE_CONFIGS["cone-off"], forge), capsys)
    assert code == 1
    assert _fails(lines) == _rederives("edges")


def _mirror(rows):
    # the pair (i, j) written as i in row j: the same edge, in the wrong row
    i = _first_row(rows)
    j = rows[i].pop(0)
    rows[j] = sorted([*rows[j], i])


@pytest.mark.parametrize("forge_rows", [
    _mirror,
    lambda rows: rows[_first_row(rows, 2)].reverse(),
    lambda rows: rows[_first_row(rows)].append(rows[_first_row(rows)][-1]),
    lambda rows: rows.pop(),  # the last row is always empty
    lambda rows: rows.append([]),
], ids=["entry-below-its-row", "unsorted", "duplicate", "one-row-short", "one-row-more"])
def test_verify_cone_off_takes_only_ascending_rows_one_per_vertex(tmp_path, capsys, forge_rows):
    code, lines = _verify(_forged(tmp_path, BASE_CONFIGS["cone-off"], lambda result: forge_rows(result["edges"])), capsys)
    assert code == 1
    assert _fails(lines) == _rederives("edges")


@pytest.mark.parametrize("key, forge, fail", [
    ("orbit_distance", lambda d: [*d[:-1], int(d[-1])], "orbit_distance re-derives from the config"),
    ("orbit_distance", lambda d: [*d[:-1], d[-1] + 1], "orbit_distance re-derives from the config"),
    ("vertices", lambda v: [v[0], v[2], v[1], *v[3:]], "vertices re-derives from the config"),
], ids=["int-for-float", "forged-distance", "two-words-swapped"])
def test_verify_cone_off_rederives_vertices_and_orbit_distances(tmp_path, capsys, key, forge, fail):
    path = _forged(tmp_path, BASE_CONFIGS["cone-off"], lambda result: result.update({key: forge(result[key])}))
    code, lines = _verify(path, capsys)
    assert code == 1
    assert _fails(lines) == [f"FAIL  {fail}"]


def _tamper_missing_distances(summary):
    del summary["result"]["witness_distances"]
    return summary


def _tamper_bad_row_label(summary):
    summary["result"]["certificate"]["rows"][0][0] = "zz"
    return summary


@pytest.mark.parametrize("name, tamper", [
    ("delta", lambda summary: []),
    ("delta", _tamper_missing_distances),
    ("qm-certify", _tamper_bad_row_label),
])
def test_verify_reports_a_malformed_summary_as_a_failure(tmp_path, capsys, name, tamper):
    _, out = run_config(tmp_path, BASE_CONFIGS[name], name)
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(tamper(json.loads(summary_path.read_text()))))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert any(line.startswith("FAIL") for line in lines)


def test_verify_tau_rejects_a_result_for_another_element(tmp_path, capsys):
    from hypactions.loxodromic import translation_length_estimate

    cfg = BASE_CONFIGS["tau"]
    _, out = run_config(tmp_path, cfg, "tau")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    # a self-consistent result, but for g = ab and horizon 2, not the config's
    oracle = parse_config(cfg)[0].oracle
    est = translation_length_estimate(oracle.parse_element("ab"), lambda w: float(len(w)), 2)
    summary["result"].update(g="ab", horizon=2, trace=est.trace, upper=est.upper, exact=2)
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("g", "horizon", "upper", "trace", "exact")


@pytest.mark.parametrize("forged, dominated", [(0, True), (2, False)])
def test_verify_tau_rederives_the_exact_value_on_bs(tmp_path, capsys, forged, dominated):
    cfg = {**BASE_CONFIGS["tau"], "group": {"kind": "bs", "m": 2, "n": 3}, "parameters": {"g": "at", "horizon": 20}}
    code, out = run_config(tmp_path, cfg, "tau-bs")
    assert code == 0
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    assert (summary["result"]["exact"], summary["result"]["upper"]) == (1, 1.0)
    assert "PASS  upper bound dominates the exact value" in _verify(summary_path, capsys)[1]
    summary["result"]["exact"] = forged
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    dominance = [] if dominated else ["FAIL  upper bound dominates the exact value"]
    assert _fails(lines) == _rederives("exact") + dominance


def test_verify_compress_rejects_a_summary_without_reports(tmp_path, capsys):
    _, out = run_config(tmp_path, BASE_CONFIGS["compress"], "compress")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["result"]["reports"] = []
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("reports")


def test_verify_compress_rederives_every_length(tmp_path, capsys):
    _, out = run_config(tmp_path, BASE_CONFIGS["compress"], "compress")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    reports = summary["result"]["reports"]
    # every length forged to 1, each fitted alpha made to match: the bounds still re-check
    for rep in reports:
        rep.update(exact_length=1, fitted_alpha=3 * rep["cap"] / rep["k"])
    summary["result"]["min_fitted_alpha"] = min(rep["fitted_alpha"] for rep in reports)
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("reports", "min_fitted_alpha")
    assert "PASS  bounds re-check" in lines


def test_verify_compress_rederives_the_summary_fields(tmp_path, capsys):
    path = _forged(tmp_path, BASE_CONFIGS["compress"], lambda result: result.update(
        all_upper_ok=False, all_lower_ok=False, min_fitted_alpha=99.0, K_measured=7.0))
    code, lines = _verify(path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("K_measured", "min_fitted_alpha", "all_upper_ok", "all_lower_ok")


def _upper_ok_as_one(result):
    result["all_upper_ok"] = 1
    result["reports"][0]["upper_ok"] = 1


@pytest.mark.parametrize("name, forge, keys", [
    ("compress", _upper_ok_as_one, ["reports", "all_upper_ok"]),
    ("tau", lambda result: result.update(horizon=float(result["horizon"])), ["horizon"]),
    ("tightspan", lambda result: result.update(projection_trials=float(result["projection_trials"])),
     ["projection_trials"]),
], ids=["true-as-1", "int-as-float", "int-as-float-tightspan"])
def test_verify_compares_values_as_json_stores_them(tmp_path, capsys, name, forge, keys):
    # equal under Python's ==, but not the text that `run` writes
    for write in WRITERS:
        code, lines = _verify(_forged(tmp_path, BASE_CONFIGS[name], forge, write=write), capsys)
        assert code == 1
        assert _fails(lines) == _rederives(*keys)


def test_verify_tightspan_rederives_the_kuratowski_count(tmp_path, capsys):
    _, out = run_config(tmp_path, BASE_CONFIGS["tightspan"], "tightspan")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["result"].update(trials=999, kuratowski_exact_isometric=999)
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("trials", "kuratowski_exact_isometric")


def test_verify_tightspan_replays_the_projections(tmp_path, capsys):
    _, out = run_config(tmp_path, BASE_CONFIGS["tightspan"], "tightspan")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["result"].update(projection_trials=999)
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("projection_trials")


@pytest.mark.parametrize("tamper", [
    lambda rows: [],
    lambda rows: rows[::-1],
], ids=["emptied", "reordered"])
def test_verify_sl2_embed_ties_rows_to_the_ball(tmp_path, capsys, tamper):
    _, out = run_config(tmp_path, BASE_CONFIGS["sl2-embed"], "sl2")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["result"]["rows"] = tamper(summary["result"]["rows"])
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _rederives("rows")[0] in lines


def test_verify_sl2_embed_rederives_the_translation_lengths(tmp_path, capsys):
    _, out = run_config(tmp_path, _with("sl2-embed", lambda c: c["parameters"].update(radius=3)), "sl2")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    row = next(r for r in summary["result"]["rows"] if r["class_e1"] == "loxodromic")
    row["tau_e1"] += 1e-6
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _rederives("rows")[0] in lines


def test_sl2_embed_honours_the_ball_cap(tmp_path):
    cfg = _with("sl2-embed", lambda c: (c["parameters"].update(radius=2), c.update(budgets={"ball_cap": 1})))
    code, out = run_config(tmp_path, cfg, "sl2")
    assert code == 2
    assert json.loads((out / "summary.json").read_text())["status"] == "budget-exceeded"


# SHA-256 of the compact JSON text of `result` for the benchmark's exact
# workload configs at seed 7, as the Fraction-coordinate field wrote them;
# the tightspan digests are of the 0.4.0 results less the slack and
# iteration keys that left with the float projector
GOLDEN_RESULTS = [
    ({"kind": "sl2", "field": {"d": 2}}, "sl2-embed", {"x": "sqrt2-1", "radius": 4},
     "63d79bdcafa3d54daf96245b54c157bd0af478e25aae2a8f71169eef4b695bf0"),
    ({"kind": "sl2", "field": {"d": 3}}, "sl2-embed", {"x": "sqrt3-1", "radius": 4},
     "a007133c021067b561823d58492aed79632cda7f8ac3268406725501007fc814"),
    ({"kind": "free", "rank": 2}, "tightspan", {"points": 6, "trials": 30, "proj_trials": 30},
     "ea64f6bd7385b360d46c24fc88bd340c5552b9a2055147011f181b4df230285f"),
    ({"kind": "free", "rank": 2}, "tightspan", {"points": 8, "trials": 20, "proj_trials": 20},
     "bae76939c9a2bd8ea41c0a2ef722d9e9ff8dd4bfb20f7f51ea0df3d2dfc7c74b"),
]


@pytest.mark.parametrize("group, experiment, parameters, digest", GOLDEN_RESULTS,
                         ids=["sl2-d2-r4", "sl2-d3-r4", "tightspan-p6", "tightspan-p8"])
def test_exact_results_are_byte_identical_to_the_golden_digests(tmp_path, group, experiment, parameters, digest):
    cfg = {"format": 1, "group": group, "experiment": experiment, "parameters": parameters, "seed": 7}
    code, out = run_config(tmp_path, cfg)
    assert code == 0
    result = json.loads((out / "summary.json").read_text())["result"]
    assert hashlib.sha256(_json_text(result).encode()).hexdigest() == digest


def test_verify_tightspan_rederives_the_tree_matrix(tmp_path, capsys):
    _, out = run_config(tmp_path, BASE_CONFIGS["tightspan"], "tightspan")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    tree = summary["result"]["tree_matrix"]
    tree[0][1] = tree[1][0] = tree[0][1] + 1
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("tree_matrix")


def test_verify_borel_order_reads_r_and_s_from_the_config(tmp_path, capsys):
    _, out = run_config(tmp_path, BASE_CONFIGS["borel-order"], "borel")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["result"]["s"] = [1, 2, 3]  # r - s = 0: a self-consistent sup diff of 0 and bound 1
    summary["result"].update(sup_diff=0, bound=1)
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _rederives("s")[0] in lines


def test_verify_borel_order_replays_the_check(tmp_path, capsys):
    _, out = run_config(tmp_path, BASE_CONFIGS["borel-order"], "borel")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    result = summary["result"]
    result.update(generators_checked=result["generators_checked"] + 1, max_length=1, max_ratio=1 / result["bound"])
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("generators_checked", "max_length", "max_ratio")


BROOKS = {
    "format": 1,
    "group": {"kind": "free", "rank": 2},
    "experiment": "qm-certify",
    "parameters": {"g": "ab", "radius": 3, "qm": {"brooks": "ab"}},
    "seed": 0,
}


def _zero_defect(cert):
    cert["defect"].update(value=0.0, witness_pair=None)
    cert["homogenized_value"] = 2.0


@pytest.mark.parametrize("forge", [
    lambda cert: cert.update(rows=[]),
    lambda cert: cert["rows"].pop(len(cert["rows"]) // 2),
    lambda cert: cert["rows"].reverse(),
    _zero_defect,
    lambda cert: cert.update(subordination_M=cert["subordination_M"] + 1.0),
    lambda cert: cert["defect"].update(source="analytic"),
], ids=["rows-emptied", "row-dropped", "rows-reordered", "defect-zeroed", "M-forged", "source-analytic"])
def test_verify_qm_certify_rederives_the_certificate(tmp_path, capsys, forge):
    code, out = run_config(tmp_path, BROOKS, "brooks")
    assert code == 0
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    assert summary["result"]["certificate"]["defect"]["source"] == "exact"
    assert summary["result"]["proper_power"] is False
    forge(summary["result"]["certificate"])
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("certificate")


def test_qm_certify_reads_the_defect_classes_of_b6_for_a_word_of_length_7(tmp_path, capsys):
    # |abAB| = 4: the defect comes from the classes of B(3), whatever the
    # radius, 361 class triples.  No element of B(3) has a nonzero
    # homogenization (abAB has no period of length 1 to 3), so radius 4 is
    # the smallest that certifies.
    cfg = {**BROOKS, "parameters": {"g": "abAB", "radius": 4, "qm": {"brooks": "abAB"}}}
    code, out = run_config(tmp_path, cfg, "abAB")
    assert code == 0
    cert = json.loads((out / "summary.json").read_text())["result"]["certificate"]
    assert (cert["defect"]["value"], cert["defect"]["pairs_checked"]) == (2.0, 361)
    assert (cert["homogenized_value"], len(cert["rows"])) == (1.0, 161)
    assert main(["verify", str(out / "summary.json")]) == 0
    # |abababa| = 7: its classes come from B(6), 1,457 points, which
    # `ball_cap` bounds; radius 2 holds the witness ab, of homogenized value 1
    cfg = {**BROOKS, "parameters": {"g": "ab", "radius": 2, "qm": {"brooks": "abababa"}}}
    code, out = run_config(tmp_path, {**cfg, "budgets": {"ball_cap": 1456}}, "abababa-cap")
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["status"], summary["error"]) == ("budget-exceeded", "ball size cap 1456 exceeded at radius 6")
    # within the cap, the run gets past the defect to the fit: abababa occurs in no element of B(2)
    code, out = run_config(tmp_path, {**cfg, "budgets": {"ball_cap": 1457}}, "abababa")
    assert code == 1
    assert "experiment failed: not-subordinate: fitted M = 0 on the radius-2 ball" in capsys.readouterr().err


def test_verify_qm_certify_replays_the_defect_witness(tmp_path, capsys):
    code, out = run_config(tmp_path, BROOKS, "brooks")
    assert code == 0
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    defect = summary["result"]["certificate"]["defect"]
    assert (defect["value"], defect["witness_pair"]) == (1.0, ["a^-1", "ab"])
    defect["witness_pair"] = ["a", "a"]  # q(a^2) - q(a) - q(a) = 0, below the defect 1
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == [*_rederives("certificate"), "FAIL  defect witness pair replays to the defect value"]


def test_qm_certify_run_refuses_m_zero_beside_a_nonzero_value(tmp_path, capsys):
    # no element of B(3) contains abab, so |q| is 0 on the whole ball and the
    # fit gives M = 0, yet |q(g^n)| <= M l(g^n) + M for every n would force
    # the homogenized value at ab to be 0, not 1
    cfg = {**BROOKS, "parameters": {"g": "ab", "radius": 3, "qm": {"brooks": "abab"}}}
    code, out = run_config(tmp_path, cfg, "abab")
    assert code == 1
    assert not out.exists()
    assert "experiment failed: not-subordinate: fitted M = 0 on the radius-3 ball" in capsys.readouterr().err


def test_verify_qm_certify_refuses_m_zero_beside_a_nonzero_value(tmp_path, capsys):
    cfg = {**BROOKS, "parameters": {"g": "ab", "radius": 4, "qm": {"brooks": "abab"}}}
    code, out = run_config(tmp_path, cfg, "abab")
    assert code == 0
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    cert = summary["result"]["certificate"]
    assert (cert["subordination_M"] > 0, cert["homogenized_value"]) == (True, 1.0)
    cert["subordination_M"] = 0.0  # the M that radius 3 fits and `run` refuses
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == [*_rederives("certificate"),
                             "FAIL  subordination M is positive beside a nonzero homogenized value"]


def test_qm_certify_witness_outside_the_ball_fails(tmp_path, capsys):
    cfg = _with("qm-certify", lambda c: c["parameters"].update(radius=0))
    code, _ = run_config(tmp_path, cfg)
    assert code == 1
    assert "experiment failed: witness-outside-ball" in capsys.readouterr().err


def test_verify_isotropy_probe_replays_its_pairs(tmp_path, capsys):
    _, out = run_config(tmp_path, BASE_CONFIGS["isotropy-probe"], "iso")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    result = summary["result"]
    assert result["failures"]
    # every sampled pair matched: self-consistent, but not what the seed draws
    result.update(failures=[], successes=result["pairs_checked"], success_rate=1.0)
    summary_path.write_text(json.dumps(summary))
    code, lines = _verify(summary_path, capsys)
    assert code == 1
    assert _fails(lines) == _rederives("successes", "success_rate", "failures")


def test_a_proper_power_counting_word_warns_in_one_plain_line(tmp_path, capsys):
    cfg = json.loads(json.dumps(BROOKS))
    cfg["parameters"]["qm"]["brooks"] = "abab"
    cfg["parameters"]["radius"] = 4  # B(3) holds no abab, and `run` refuses its M = 0 certificate
    code, out = run_config(tmp_path, cfg, "abab")
    run_err = capsys.readouterr().err
    assert code == 0
    # the summary records it as well as stderr
    assert json.loads((out / "summary.json").read_text())["result"]["proper_power"] is True
    code = main(["verify", str(out / "summary.json")])
    verify_err = capsys.readouterr().err
    assert code == 0
    for err in (run_err, verify_err):
        assert err == "warning: counting word abab is a proper power\n"  # no file name, line number or source line
