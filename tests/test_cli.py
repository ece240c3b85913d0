import json

import pytest

from hypactions.cli import main, validate_config
from hypactions.groups import group_from_spec
from oracles import cone_off_edges_naive, graph_metric_naive

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
    summary_path = out / "summary.json"
    assert summary_path.exists()
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
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "budget-exceeded"


def test_reruns_are_byte_identical(tmp_path):
    for name in ("delta", "tightspan", "qm-certify"):
        _, out1 = run_config(tmp_path, BASE_CONFIGS[name], f"{name}-1")
        _, out2 = run_config(tmp_path, BASE_CONFIGS[name], f"{name}-2")
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 1


def test_verify_rejects_budget_summaries(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIGS["delta"]))
    cfg["parameters"]["radius"] = 5
    cfg["budgets"] = {"ball_cap": 50}
    _, out = run_config(tmp_path, cfg, "tiny")
    assert main(["verify", str(out / "summary.json")]) == 1


def test_csv_tables_written(tmp_path):
    _, out = run_config(tmp_path, BASE_CONFIGS["sl2-embed"], "sl2")
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "word,trace,class_e1,class_e2,tau_e1,tau_e2"
    assert len(spectrum) > 1

def test_time_cap_budget(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIGS["delta"]))
    cfg["budgets"] = {"time_cap": 0.0}
    code, out = run_config(tmp_path, cfg, "slow")
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "budget-exceeded"


def test_verify_cone_off_rejects_an_edge_whose_geodesics_meet_the_orbit(tmp_path, capsys):
    cfg = BASE_CONFIGS["cone-off"]
    _, out = run_config(tmp_path, cfg, "cone")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())

    # a pair outside the A-neighborhood, at distance >= 2, that is no edge:
    # every geodesic between its ends meets the neighborhood
    params = cfg["parameters"]
    oracle = group_from_spec(cfg["group"])
    ball = oracle.enumerate_ball(params["radius"])
    adj = ball.adjacency()
    D0 = graph_metric_naive(adj)
    h = oracle.parse_element(params["orbit"])
    orbit = [ball.index[h**k] for k in range(-params["radius"], params["radius"] + 1)]
    orbit_dist = [min(D0[s][v] for s in orbit) for v in range(len(ball))]
    allowed = [d > params["A"] for d in orbit_dist]
    edges = set(cone_off_edges_naive(adj, D0, allowed))
    x, y = next(
        (x, y) for x in range(len(ball)) for y in range(x + 1, len(ball))
        if allowed[x] and allowed[y] and D0[x][y] >= 2 and (x, y) not in edges
    )
    summary["result"]["edge_rows"][0] = [ball.words[x], ball.words[y], float(orbit_dist[x]), float(orbit_dist[y])]
    summary_path.write_text(json.dumps(summary))

    capsys.readouterr()
    assert main(["verify", str(summary_path)]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL  some geodesic of every new edge avoids the A-neighborhood"
    ]


def test_verify_cone_off_rejects_a_label_outside_the_ball(tmp_path, capsys):
    _, out = run_config(tmp_path, BASE_CONFIGS["cone-off"], "cone")
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["result"]["edge_rows"][0][1] = "b^9"
    summary_path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", str(summary_path)]) == 1
    assert "FAIL  every edge row names two ball vertices" in capsys.readouterr().out
