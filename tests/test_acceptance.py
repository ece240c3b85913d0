"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import random
import time
from itertools import product

from hypactions.cli import main as cli_main
from hypactions.compression import (
    BorelMapConfig,
    CompressedGenSet,
    PiPrefix,
    order_preservation_check,
    qks_compare,
    verify_length_bounds,
)
from hypactions.groups import FreeGroupOracle
from hypactions.loxodromic import translation_length_exact
from hypactions.metrics import (
    cone_off,
    four_point_delta,
    free_ball_distance_matrix,
    random_rational_metric,
    random_tree_metric,
)
from hypactions.sl2 import (
    RealEmbedding,
    classify,
    lemma_emb_matrix,
    parse_qfe,
    translation_length_h2,
)
from hypactions.tightspan import (
    hull_sample_delta,
    is_extremal,
    kuratowski_embed,
    project_to_hull,
    sup_distance,
)
from hypactions.words import FreeWord, parse_word
from oracles import acosh_decimal, adjacency_naive, cyclic_reduce_naive, power_naive

F2 = FreeGroupOracle(2)


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_tree_hyperbolicity():
    start = time.perf_counter()
    ball3 = F2.enumerate_ball(3)
    assert len(ball3) == 53
    est = four_point_delta(free_ball_distance_matrix(ball3), mode="exhaustive")
    assert est.quadruples_checked == 53**4
    assert est.delta == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    ball6 = F2.enumerate_ball(6)
    sampled = four_point_delta(
        free_ball_distance_matrix(ball6), mode="sampled", count=1_000_000, seed=0
    )
    assert sampled.delta == 0.0
    report(1, f"delta = 0 on 53^4 quadruples ({elapsed:.1f}s) and 10^6 samples at radius 6")


def test_criterion_2_translation_length_law():
    rng = random.Random(2024)
    checked = 0
    for _ in range(50):
        length = rng.randint(1, 6)
        letters = []
        while len(letters) < length:
            cand = rng.choice([1, -1, 2, -2])
            if letters and letters[-1] == -cand:
                continue
            letters.append(cand)
        g = FreeWord(letters)
        assert len(g) == length
        tau = translation_length_exact(g)
        assert tau == len(cyclic_reduce_naive(letters))  # independent oracle
        for n in range(1, 6):
            naive_len = len(power_naive(letters, n))  # independent reduction
            assert naive_len == n * tau + (len(g) - tau)
            assert len(g**n) == naive_len
            checked += 1
    report(2, f"|g^n| = n*tau + (|g| - tau) exactly on {checked} (g, n) pairs")


def test_criterion_3_compression_bounds():
    start = time.perf_counter()
    W = CompressedGenSet(2, [("ab^3", 2), ("ab^9", 3)])
    K_measured = max(len(w) / translation_length_exact(w) for w, _ in W.families)
    paper_alpha = 1.0 / (2.0 * 10**3 * K_measured)
    fitted = []
    for j in range(2):
        for k in range(1, 13):
            rep = verify_length_bounds(j, k, W, alpha=paper_alpha)
            assert rep.upper_ok, f"upper bound fails at j={j}, k={k}"
            assert rep.lower_ok, f"lower bound fails at j={j}, k={k}"
            fitted.append(rep.fitted_alpha)
    elapsed = time.perf_counter() - start
    assert min(fitted) >= paper_alpha
    assert elapsed < 300.0
    report(
        3,
        f"lengths within [alpha*k/n - 2, ceil(k/n)] for k <= 12; "
        f"fitted alpha {min(fitted):.3f} >= {paper_alpha:.5f} ({elapsed:.1f}s)",
    )


def test_criterion_4_order_preservation():
    config = BorelMapConfig(2, ["ab", "ab^2", "a^2b", "ab^3"], [1, 1, 1, 1])
    prefixes = [PiPrefix(v) for v in product((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4))]
    assert len(prefixes) == 24
    pairs = violations = 0
    for r in prefixes:
        for s in prefixes:
            k = qks_compare(r, s).sup_diff
            if k not in (0, 1, 2):
                continue
            pairs += 1
            rep = order_preservation_check(r, s, config)
            assert rep.max_length <= 2**k
            violations += len(rep.violations)
    assert violations == 0
    report(4, f"every f(s)-generator has f(r)-length <= 2^k on {pairs} prefix pairs")


def test_criterion_5_qks_comparator():
    rng = random.Random(5)

    def rand_prefix():
        return PiPrefix(tuple(rng.randint(1, i) for i in range(1, 9)))

    for _ in range(100):
        r = rand_prefix()
        assert qks_compare(r, r).sup_diff == 0
    failures = 0
    for _ in range(1000):
        r, s, t = rand_prefix(), rand_prefix(), rand_prefix()
        if qks_compare(r, t).sup_diff > qks_compare(r, s).sup_diff + qks_compare(s, t).sup_diff:
            failures += 1
    assert failures == 0
    report(5, "sup-diff comparator reflexive and triangle on 10^3 random triples")


def test_criterion_6_bs_certificate(tmp_path, capsys):
    cfg = {
        "format": 1,
        "group": {"kind": "bs", "m": 2, "n": 3},
        "experiment": "qm-certify",
        "parameters": {"g": "t", "radius": 4},
        "seed": 0,
    }
    cfg_path = tmp_path / "bs.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "bs.out"
    assert cli_main(["run", str(cfg_path), "-o", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    cert = summary["result"]["certificate"]
    assert cert["defect"]["value"] == 0.0
    assert cert["subordination_M"] == 1.0
    assert cert["homogenized_value"] == 1.0
    assert cert["witness"] == "t"
    capsys.readouterr()
    assert cli_main(["verify", str(out / "summary.json")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    report(6, "exponent-sum certificate (defect 0, M = 1, value 1) re-verified by `verify`")


def test_criterion_7_sl2_embedding_split():
    x = parse_qfe("sqrt2-1", 2)
    A = lemma_emb_matrix(x)
    plus, minus = RealEmbedding(1), RealEmbedding(-1)
    assert classify(A, plus) == "elliptic"
    assert classify(A, minus) == "loxodromic"
    tau = translation_length_h2(A, minus)
    # |tr|/2 = sqrt2 + 1 under the minus embedding
    oracle_value = 2.0 * acosh_decimal(math.sqrt(2) + 1)
    assert abs(tau - oracle_value) <= 1e-9
    tau2 = translation_length_h2(A * A, minus)
    assert abs(tau2 - 2.0 * tau) <= 1e-9
    report(7, f"lemma matrix elliptic(+) / loxodromic(-), tau(-) = {tau:.9f} checked to 1e-9")


def test_criterion_8_tight_span():
    rng = random.Random(8)
    for _ in range(20):
        X = random_rational_metric(4, rng)
        for i in range(4):
            for j in range(4):
                d = sup_distance(kuratowski_embed(i, X), kuratowski_embed(j, X))
                assert d == X.rows[i][j]  # exact: quarter-integers in float64

    for _ in range(100):
        X = random_rational_metric(4, rng)
        base = kuratowski_embed(rng.randrange(4), X)
        start = [v + math.floor(9 * rng.random()) / 4 for v in base]  # quarter-integers: exact in float64
        f, steps = project_to_hull(start, X)
        assert is_extremal(f, X) == (True, 0) and steps == 4
        assert all(o <= s for o, s in zip(f, start))

    for _ in range(5):
        tree = random_tree_metric(6, rng)
        sample = [kuratowski_embed(i, tree) for i in range(tree.size)]
        assert hull_sample_delta(tree, sample, 6**4).delta == 0.0
    report(8, "Kuratowski exactly isometric (20 spaces), 100 projections exactly extremal, tree hulls flat")


def test_criterion_9_cone_off_sanity():
    ball = F2.enumerate_ball(4)
    a = parse_word("a")
    orbit = [a**k for k in range(-4, 5)]
    res = cone_off(ball, orbit, 1)
    assert len(res.new_edges)
    # independent check: BFS distances to the orbit in the ball graph
    adj = adjacency_naive(ball)
    orbit_idx = {ball.index[g] for g in orbit}
    dist = {i: 0 for i in orbit_idx}
    frontier = sorted(orbit_idx)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    violations = [
        (x, y) for x, y in res.new_edges.tolist() if dist.get(x, 99) <= 1 or dist.get(y, 99) <= 1
    ]
    assert violations == []
    report(9, f"{len(res.new_edges)} added edges, all endpoints beyond the 1-neighborhood of <a>")


def test_criterion_10_determinism(tmp_path):
    configs = {
        "delta": {
            "format": 1,
            "group": {"kind": "free", "rank": 2},
            "experiment": "delta",
            "parameters": {"radius": 3, "mode": "exhaustive"},
            "seed": 0,
        },
        "qm": {
            "format": 1,
            "group": {"kind": "bs", "m": 2, "n": 3},
            "experiment": "qm-certify",
            "parameters": {"g": "t", "radius": 4},
            "seed": 0,
        },
        "sl2": {
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
            "parameters": {"points": 4, "trials": 10, "proj_trials": 10},
            "seed": 3,
        },
    }
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}.{run}"
            assert cli_main(["run", str(cfg_path), "-o", str(out)]) == 0
            outs.append((out / "summary.json").read_bytes())
        assert outs[0] == outs[1], f"{name} summaries differ between runs"
    report(10, "re-running every config produces byte-identical summaries")
