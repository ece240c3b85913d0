"""Tests of the benchmark harness: counters, span nesting and the output gate.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracing
import workloads
from workloads import BS23, F2, config

COUNT_UNITS = ("count", "bytes")


def tiny_entries(directory, seed):
    """A small batch touching every traced layer, written under `directory`."""
    batch = [
        ("delta", config(F2, "delta", {"radius": 2}, seed), [workloads.raw_max_zero()]),
        ("delta-sampled", config(BS23, "delta", {"radius": 2, "mode": "sampled", "count": 5000}, seed), []),
        ("cone", config(BS23, "cone-off", {"radius": 3, "orbit": "t", "A": 0}, seed), []),
        ("qm", config(BS23, "qm-certify", {"g": "t", "radius": 2}, seed), workloads.certificate(1.0, M=1)),
        ("brooks", config(F2, "qm-certify", {"g": "ab", "radius": 2, "qm": {"brooks": "ab"}}, seed), []),
        ("tau", config(BS23, "tau", {"g": "at", "horizon": 10}, seed), []),
        ("iso", config(F2, "isotropy-probe", {"radius": 2, "D": 2, "pairs": 4}, seed), []),
        ("sl2", config({"kind": "sl2", "field": {"d": 2}}, "sl2-embed", {"radius": 2}, seed), []),
        ("compress", config(F2, "compress", {"families": [{"w": "ab^3", "cap": 2}], "k_max": 6}, seed), []),
        ("tightspan", config(F2, "tightspan", {"points": 4, "trials": 3, "proj_trials": 3}, seed), []),
    ]
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, cfg, checks in batch:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cfg))
        entries.append((name, path, checks))
    return entries


def traced_counters(directory, seed):
    batch = bench.Batch(tiny_entries(directory, seed))
    _, _, layers = bench.measure(batch, 0, tracing.Tracer())
    assert not batch.failures
    return [
        {name: value for name, (value, unit) in layer.items() if unit in COUNT_UNITS}
        for layer in layers
    ]


def test_traced_counters_repeat_exactly(tmp_path):
    first = traced_counters(tmp_path / "a", seed=7)
    second = traced_counters(tmp_path / "b", seed=7)
    assert first == second
    assert first[0] == first[1]  # and from pass to pass within a run
    counts = first[0]
    for layer in ("groups.enumerate_ball.elements", "words.mul.calls", "baumslag.mul.calls",
                  "metrics.four_point_delta.quadruples", "metrics.graph_metric_matrix.points",
                  "metrics.cone_off.candidate_pairs", "quasimorphism.defect_empirical.pairs",
                  "loxodromic.isotropy_probe.pairs", "compression.compressed_word_length.calls",
                  "sl2.mul.calls", "sl2.classify.calls", "tightspan.project_to_hull.iterations",
                  "cli.write.bytes"):
        assert counts[layer] > 0, layer


def test_work_sizes_do_not_depend_on_the_seed(tmp_path):
    one = traced_counters(tmp_path / "a", seed=1)[0]
    two = traced_counters(tmp_path / "b", seed=2)[0]
    for layer in ("groups.enumerate_ball.elements", "metrics.four_point_delta.quadruples",
                  "quasimorphism.defect_empirical.pairs", "loxodromic.isotropy_probe.pairs",
                  "metrics.cone_off.candidate_pairs", "baumslag.mul.calls"):
        assert one[layer] == two[layer], layer
    for workload in workloads.WORKLOADS:
        strip = [[name, {k: v for k, v in cfg.items() if k != "seed"}]
                 for name, cfg, _ in workloads.batch(workload, 1)]
        assert strip == [[name, {k: v for k, v in cfg.items() if k != "seed"}]
                         for name, cfg, _ in workloads.batch(workload, 2)]


def test_spans_nest_and_tracing_uninstalls(tmp_path):
    import hypactions.cli
    import hypactions.metrics

    originals = (hypactions.metrics.cone_off, hypactions.cli.cone_off, hypactions.cli.VERIFIERS["delta"])
    tracer = tracing.Tracer()
    bench.measure(bench.Batch(tiny_entries(tmp_path, 0)), 0, tracer)
    assert originals == (hypactions.metrics.cone_off, hypactions.cli.cone_off, hypactions.cli.VERIFIERS["delta"])

    spans = tracer.spans
    parent_of = {}
    for name, start, end, parent, run in spans:
        assert end >= start
        parent_of.setdefault(name, set()).add(None if parent is None else spans[parent][0])
    assert parent_of["metrics.cone_off"] == {"cli.run_experiment"}
    assert "metrics.cone_off" in parent_of["metrics.graph_metric_matrix"]
    assert parent_of["groups.adjacency"] == {"metrics.cone_off", "metrics.graph_metric_matrix"}
    assert parent_of["quasimorphism.defect_empirical"] == {"quasimorphism.anisotropy_certificate"}
    assert parent_of["cli.run_experiment"] == {"cli.run"}
    assert parent_of["cli.verify.delta"] == {"cli.verify"}
    assert parent_of["cli.run"] == parent_of["cli.verify"] == {None}

    total, own, _ = tracing.span_times(spans, spans[-1][4])
    for name in total:
        assert -1e-9 <= own[name] <= total[name] + 1e-9


def test_tampered_summary_counts_as_failed(tmp_path, monkeypatch):
    import hypactions.cli

    batch = bench.Batch(tiny_entries(tmp_path, 0))
    batch.run_pass(1)
    assert batch.failures == []

    write = hypactions.cli._write_outputs

    def tampered(outdir, summary, tables):
        path = write(outdir, summary, tables)
        data = json.loads(path.read_text())
        if data["experiment"] == "delta":
            data["result"]["delta"]["raw_max"] += 1.0
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return path

    monkeypatch.setattr(hypactions.cli, "_write_outputs", tampered)
    batch.run_pass(2)
    failed = {name for index, name, _ in batch.failures}
    assert failed == {"delta", "delta-sampled"}
    problems = " ".join(problem for _, name, problem in batch.failures if name == "delta")
    assert "verify" in problems
    assert "differs in bytes" in problems
    assert "raw_max is 0" in problems


def test_failed_run_counts_as_failed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config(F2, "no-such-experiment", {}, 0)))
    batch = bench.Batch([("bad", path, [])])
    _, _, written = batch.run_pass(1)
    assert written == 0
    assert [(index, name) for index, name, _ in batch.failures] == [(1, "bad")]
    assert batch.failures[0][2].startswith("run exited 1")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_config_is_valid(workload):
    from hypactions.cli import validate_config

    names = [name for name, _, _ in workloads.batch(workload, 3)]
    assert len(names) == len(set(names))
    for _, cfg, _ in workloads.batch(workload, 3):
        assert validate_config(cfg) == []
        assert cfg["seed"] == 3
