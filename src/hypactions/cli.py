"""Batch experiment driver: `run <config.json>`, `verify <summary.json>`,
`schema`.

Every run is fully determined by (config, tool version); the config is echoed
into the summary, all randomness is seeded, and re-running a config produces
byte-identical outputs.  Exit codes: 0 success, 1 validation error, 2 budget
exceeded.  Summaries carry enough witness data for `verify` to re-check every
claim without re-running any search.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .baumslag import BSElement
from .compression import (
    BorelMapConfig,
    CompressedGenSet,
    PiPrefix,
    order_preservation_check,
    qks_compare,
    verify_length_bounds,
)
from .errors import BudgetExceeded, CertificateError
from .groups import group_from_spec
from .loxodromic import isotropy_probe, translation_length_estimate, translation_length_exact_free
from .metrics import (
    ZERO_TOL,
    PseudoLength,
    cone_off,
    four_point_delta,
    free_ball_distance_matrix,
    graph_metric_matrix,
    induced_metric,
    quadruple_defect,
    random_rational_metric,
    random_tree_metric,
    set_distance,
)
from .quasimorphism import anisotropy_certificate, brooks_qm, exponent_sum_qm
from .sl2 import (
    RealEmbedding,
    classify,
    embedding_spectrum_compare,
    lemma_emb_matrix,
    mat2,
    mat2_from_json,
    parse_qfe,
)
from .tightspan import (
    hull_sample_delta,
    is_extremal,
    kuratowski_embed,
    project_to_hull,
    sup_distance,
)
from .words import FreeWord, parse_word

FORMAT_VERSION = 1
EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2

EXPERIMENTS = (
    "delta",
    "tau",
    "compress",
    "borel-order",
    "qm-certify",
    "sl2-embed",
    "tightspan",
    "cone-off",
    "isotropy-probe",
)

CONFIG_SCHEMA = {
    "format": "must equal 1",
    "group": {
        "kind": "free | bs | sl2",
        "rank": "int >= 1 (free)",
        "m": "nonzero int (bs)",
        "n": "nonzero int (bs)",
        "field": {"d": "square-free int >= 2 (sl2)"},
    },
    "experiment": " | ".join(EXPERIMENTS),
    "parameters": "experiment-specific object; see README",
    "budgets": {
        "ball_cap": "int, max ball size (default 2000000)",
        "quadruple_cap": "int, max exhaustive quadruples (default 200000000)",
        "probe_cap": "int, max compressed-length probes (default 2000000)",
        "time_cap": "seconds; a run over the cap is reported as budget-exceeded",
    },
    "seed": "int (default 0)",
}


def validate_config(cfg) -> list[str]:
    """Return the list of offending paths (empty when the config is valid)."""
    problems = []
    if not isinstance(cfg, dict):
        return ["$: config must be a JSON object"]
    if cfg.get("format", FORMAT_VERSION) != FORMAT_VERSION:
        problems.append("format: unsupported version")
    group = cfg.get("group")
    if not isinstance(group, dict) or group.get("kind") not in ("free", "bs", "sl2"):
        problems.append("group.kind: must be one of free | bs | sl2")
    else:
        if group["kind"] == "free" and int(group.get("rank", 2)) < 1:
            problems.append("group.rank: must be >= 1")
        if group["kind"] == "bs" and (int(group.get("m", 0)) == 0 or int(group.get("n", 0)) == 0):
            problems.append("group.m / group.n: must be nonzero")
    if cfg.get("experiment") not in EXPERIMENTS:
        problems.append(f"experiment: must be one of {', '.join(EXPERIMENTS)}")
    if not isinstance(cfg.get("parameters", {}), dict):
        problems.append("parameters: must be an object")
    budgets = cfg.get("budgets", {})
    if not isinstance(budgets, dict):
        problems.append("budgets: must be an object")
    else:
        for key in budgets:
            if key not in ("ball_cap", "quadruple_cap", "probe_cap", "time_cap"):
                problems.append(f"budgets.{key}: unknown budget")
    if not isinstance(cfg.get("seed", 0), int):
        problems.append("seed: must be an integer")
    return problems


def _budget(cfg, name, default):
    return int(cfg.get("budgets", {}).get(name, default))


# ---------------------------------------------------------------------------
# experiment implementations: each returns (result dict, tables)
# tables: list of (name, header, rows)


def _run_delta(cfg):
    params = cfg.get("parameters", {})
    oracle = group_from_spec(cfg["group"])
    radius = int(params.get("radius", 3))
    mode = params.get("mode", "exhaustive")
    ball = oracle.enumerate_ball(radius, max_size=_budget(cfg, "ball_cap", 2_000_000))
    if isinstance(oracle.identity(), FreeWord):
        D = free_ball_distance_matrix(ball)
        metric_kind = "word"
    else:
        D = graph_metric_matrix(ball)
        metric_kind = "in-ball graph"
    est = four_point_delta(
        D,
        mode=mode,
        count=int(params.get("count", 1_000_000)),
        seed=int(cfg.get("seed", 0)),
        quadruple_cap=_budget(cfg, "quadruple_cap", 200_000_000),
        labels=[ball.words[i] for i in range(len(ball))],
    )
    i, j, k, l = est.witness
    witness_block = [[float(D[a, b]) for b in est.witness] for a in est.witness]
    result = {
        "ball_size": len(ball),
        "metric": metric_kind,
        "delta": est.to_json(),
        "witness_distances": witness_block,
    }
    table = (
        "delta_witness",
        ["position", "index", "label"],
        [[pos, idx, ball.words[idx]] for pos, idx in zip("xyzt", est.witness)],
    )
    return result, [table]


def _verify_delta(summary):
    import numpy as np

    res = summary["result"]
    block = np.array(res["witness_distances"])
    defect = quadruple_defect(block, (0, 1, 2, 3))
    claimed = res["delta"]["raw_max"]
    ok = abs(defect - claimed) <= 1e-9
    clamp_ok = abs(res["delta"]["delta"] - max(0.0, claimed)) <= 1e-12
    return [("witness quadruple reproduces raw max", ok), ("delta is the clamped max", clamp_ok)]


def _run_tau(cfg):
    params = cfg.get("parameters", {})
    oracle = group_from_spec(cfg["group"])
    g = oracle.parse_element(params["g"])
    horizon = int(params.get("horizon", 8))
    if isinstance(g, FreeWord):
        lengths = lambda w: float(len(w))
        exact = translation_length_exact_free(g)
        length_kind = "word"
    elif isinstance(g, BSElement):
        lengths = lambda w: float(w.t_syllable_count())
        exact = None
        length_kind = "t-syllable"
    else:
        raise ValueError("tau experiment supports free and bs groups")
    est = translation_length_estimate(oracle, g, lengths, horizon)
    result = {
        "g": oracle.format_element(g),
        "length": length_kind,
        "horizon": horizon,
        "upper": est.upper,
        "trace": est.trace,
        "exact_free_value": exact,
        "non_increasing": est.is_non_increasing(),
    }
    table = ("tau_trace", ["n", "ratio"], [[n + 1, r] for n, r in enumerate(est.trace)])
    return result, [table]


def _verify_tau(summary):
    cfg = summary["config"]
    res = summary["result"]
    oracle = group_from_spec(cfg["group"])
    g = oracle.parse_element(res["g"])
    if isinstance(g, FreeWord):
        lengths = lambda w: float(len(w))
    else:
        lengths = lambda w: float(w.t_syllable_count())
    est = translation_length_estimate(oracle, g, lengths, res["horizon"])
    checks = [("trace re-evaluates", est.trace == res["trace"])]
    if res["exact_free_value"] is not None:
        checks.append(
            ("upper bound dominates the exact value", est.upper >= res["exact_free_value"] - 1e-12)
        )
    return checks


def _run_compress(cfg):
    params = cfg.get("parameters", {})
    fams = [(f["w"], f["cap"]) for f in params["families"]]
    rank = int(cfg["group"].get("rank", 2))
    W = CompressedGenSet(rank, fams)
    k_max = int(params.get("k_max", 12))
    alpha = float(params.get("alpha", 0.0005))
    budget = _budget(cfg, "probe_cap", 2_000_000)
    # the paper-style alpha depends on the quasi-geodesity constant of the
    # family words; cyclically reduced words have stretch 1
    K_measured = max(
        len(w) / max(translation_length_exact_free(w), 1) for w, _ in W.families
    )
    rows = []
    reports = []
    for j in range(len(W.families)):
        for k in range(1, k_max + 1):
            rep = verify_length_bounds(j, k, W, alpha, budget=budget)
            reports.append(rep.to_json())
            rows.append(
                [j, k, rep.exact_length, rep.upper_bound, int(rep.upper_ok),
                 rep.lower_bound, int(rep.lower_ok), rep.fitted_alpha]
            )
    min_fitted = min(r["fitted_alpha"] for r in reports)
    result = {
        "genset": W.to_json(),
        "alpha": alpha,
        "K_measured": K_measured,
        "reports": reports,
        "min_fitted_alpha": min_fitted,
        "all_upper_ok": all(r["upper_ok"] for r in reports),
        "all_lower_ok": all(r["lower_ok"] for r in reports),
    }
    table = (
        "compressed_lengths",
        ["family", "k", "exact", "upper", "upper_ok", "lower", "lower_ok", "fitted_alpha"],
        rows,
    )
    return result, [table]


def _verify_compress(summary):
    res = summary["result"]
    checks = []
    for rep in res["reports"]:
        k, cap = rep["k"], rep["cap"]
        up_ok = rep["exact_length"] <= -(-k // cap)
        low_ok = rep["exact_length"] >= rep["alpha"] * k / cap - 2 - 1e-12
        fit_ok = abs(rep["fitted_alpha"] - (rep["exact_length"] + 2) * cap / k) <= 1e-9
        checks.append(
            (f"family {rep['family']} k={k}: bounds re-check", up_ok and low_ok and fit_ok)
        )
    return checks


def _run_borel_order(cfg):
    params = cfg.get("parameters", {})
    rank = int(cfg["group"].get("rank", 2))
    config = BorelMapConfig(rank, params["families"], [int(x) for x in params["N"]])
    r = PiPrefix(tuple(params["r"]))
    s = PiPrefix(tuple(params["s"]))
    rep = order_preservation_check(r, s, config, budget=_budget(cfg, "probe_cap", 2_000_000))
    cmp = qks_compare(r, s)
    result = {
        "r": list(r.values),
        "s": list(s.values),
        "sup_diff": cmp.sup_diff,
        "max_abs_diff": cmp.max_abs_diff,
        "bound": rep.bound,
        "generators_checked": rep.generators_checked,
        "max_length": rep.max_length,
        "max_ratio": rep.max_ratio,
        "violations": rep.violations,
        "exact_searches": rep.exact_searches,
    }
    return result, []


def _verify_borel_order(summary):
    res = summary["result"]
    diffs = [a - b for a, b in zip(res["r"], res["s"])]
    checks = [
        ("sup diff re-computes", max(diffs) == res["sup_diff"]),
        ("bound is 2^k", res["bound"] == 2 ** max(max(diffs), 0)),
        ("no violations", not res["violations"]),
        ("max length within bound", res["max_length"] <= res["bound"]),
    ]
    return checks


def _qm_from_config(oracle, params):
    qm_spec = params.get("qm", "exponent-sum")
    if qm_spec == "exponent-sum":
        return exponent_sum_qm()
    if isinstance(qm_spec, dict) and "brooks" in qm_spec:
        return brooks_qm(parse_word(qm_spec["brooks"]))
    raise ValueError(f"unknown quasi-morphism spec {qm_spec!r}")


def _orbit_lengths(oracle, ball, kind):
    if kind == "t-syllable":
        return PseudoLength({g: float(g.t_syllable_count()) for g in ball.elements})
    if kind == "word":
        return PseudoLength.from_word_lengths(ball)
    raise ValueError(f"unknown length kind {kind!r}")


def _run_qm_certify(cfg):
    params = cfg.get("parameters", {})
    oracle = group_from_spec(cfg["group"])
    g = oracle.parse_element(params["g"])
    radius = int(params.get("radius", 4))
    power = int(params.get("power", 8))
    length_kind = params.get("length", "t-syllable" if cfg["group"]["kind"] == "bs" else "word")
    ball = oracle.enumerate_ball(radius, max_size=_budget(cfg, "ball_cap", 2_000_000))
    q = _qm_from_config(oracle, params)
    lengths = _orbit_lengths(oracle, ball, length_kind)
    cert = anisotropy_certificate(
        oracle, q, lengths, g, ball, power=power, m_cap=params.get("m_cap")
    )
    result = {
        "qm": params.get("qm", "exponent-sum"),
        "length": length_kind,
        "certificate": cert.to_json(fmt=oracle.format_element),
    }
    table = (
        "subordination_rows",
        ["element", "abs_q", "length"],
        [list(r) for r in cert.rows],
    )
    return result, [table]


def _verify_qm_certify(summary):
    cfg = summary["config"]
    res = summary["result"]
    oracle = group_from_spec(cfg["group"])
    params = cfg.get("parameters", {})
    q = _qm_from_config(oracle, params)
    cert = res["certificate"]
    M = cert["subordination_M"]
    checks = []
    rows_ok = True
    for name, abs_q, length in cert["rows"]:
        h = oracle.parse_element(name)
        if abs(abs(q(h)) - abs_q) > 1e-9 or abs_q > M * length + M + 1e-9:
            rows_ok = False
            break
    checks.append(("every subordination row re-verifies", rows_ok))
    g = oracle.parse_element(cert["witness"])
    trace_ok = True
    power = oracle.identity()
    for i, claimed in enumerate(cert["homogenization_trace"], start=1):
        power = oracle.multiply(power, g)
        if abs(q(power) / i - claimed) > 1e-9:
            trace_ok = False
            break
    checks.append(("homogenization trace re-evaluates", trace_ok))
    checks.append(
        ("homogenized value is nonzero", abs(cert["homogenized_value"]) > 1e-12)
    )
    dw = cert["defect"]["witness_pair"]
    if dw is not None:
        gg, hh = (oracle.parse_element(x) for x in dw)
        val = abs(q(oracle.multiply(gg, hh)) - q(gg) - q(hh))
        checks.append(("defect witness re-evaluates", abs(val - cert["defect"]["value"]) <= 1e-9))
    else:
        checks.append(("defect witness re-evaluates", cert["defect"]["value"] == 0.0))
    return checks


def _run_sl2_embed(cfg):
    params = cfg.get("parameters", {})
    d = int(cfg["group"].get("field", {}).get("d", 2))
    x = parse_qfe(str(params.get("x", "sqrt2-1")), d)
    radius = int(params.get("radius", 1))
    A = lemma_emb_matrix(x)
    gens = [A, mat2([[1, 1], [0, 1]], d)]
    names = ["A", "T"]
    e1 = RealEmbedding(1)
    e2 = RealEmbedding(-1)
    rows, witnesses = embedding_spectrum_compare(gens, e1, e2, radius, d=d, names=names)
    matrices = {}
    oracle_rows = []
    # store exact matrix entries so verify can re-run the sign tests
    from .sl2 import SL2Oracle

    oracle = SL2Oracle(d=d, gens=gens, names=names)
    ball = oracle.enumerate_ball(radius)
    for i, M in enumerate(ball.elements):
        entries = [[{"a": str(e.a), "b": str(e.b)} for e in (M.a, M.b)],
                   [{"a": str(e.a), "b": str(e.b)} for e in (M.c, M.d)]]
        matrices[ball.words[i]] = entries
    result = {
        "d": d,
        "x": str(x),
        "rows": rows,
        "witnesses": witnesses,
        "matrices": matrices,
        "equivalent_profiles": not witnesses,
    }
    table = (
        "spectrum",
        ["word", "trace", "class_e1", "class_e2", "tau_e1", "tau_e2"],
        [[r["word"], r["trace"], r["class_e1"], r["class_e2"], r["tau_e1"], r["tau_e2"]] for r in rows],
    )
    return result, [table]


def _verify_sl2_embed(summary):
    res = summary["result"]
    d = res["d"]
    e1, e2 = RealEmbedding(1), RealEmbedding(-1)
    checks = []
    ok = True
    for row in res["rows"]:
        M = mat2_from_json(res["matrices"][row["word"]], d)
        if classify(M, e1) != row["class_e1"] or classify(M, e2) != row["class_e2"]:
            ok = False
            break
    checks.append(("exact classifications re-verify", ok))
    wit_ok = all(r["class_e1"] != r["class_e2"] for r in res["witnesses"])
    checks.append(("witness rows differ across embeddings", wit_ok))
    return checks


def _run_tightspan(cfg):
    import random as _random

    params = cfg.get("parameters", {})
    seed = int(cfg.get("seed", 0))
    rng = _random.Random(seed)
    n = int(params.get("points", 4))
    trials = int(params.get("trials", 20))
    proj_trials = int(params.get("proj_trials", 20))
    tol = float(params.get("tol", 1e-9))
    kuratowski_ok = 0
    for _ in range(trials):
        X = random_rational_metric(n, rng)
        good = all(
            sup_distance(kuratowski_embed(i, X), kuratowski_embed(j, X)) == X.rows[i][j]
            for i in range(n)
            for j in range(n)
        )
        kuratowski_ok += good
    slacks = []
    iterations = []
    for _ in range(proj_trials):
        X = random_rational_metric(n, rng)
        start = [float(v) + rng.random() * 3 for v in X.rows[rng.randrange(n)]]
        f, its = project_to_hull(start, X, tol=tol)
        _, slack = is_extremal(f, X, tol)
        slacks.append(slack)
        iterations.append(its)
    tree = random_tree_metric(int(params.get("tree_points", 6)), rng)
    sample = [kuratowski_embed(i, tree) for i in range(tree.size)]
    est = hull_sample_delta(tree, sample)
    result = {
        "points": n,
        "trials": trials,
        "kuratowski_exact_isometric": kuratowski_ok,
        "projection_trials": proj_trials,
        "max_slack": max(slacks) if slacks else 0.0,
        "max_iterations": max(iterations) if iterations else 0,
        "tree_sample_delta": est.to_json(),
        "tree_matrix": [[int(v) for v in row] for row in tree.rows],
    }
    return result, []


def _verify_tightspan(summary):
    res = summary["result"]
    checks = [
        ("all Kuratowski embeddings exactly isometric", res["kuratowski_exact_isometric"] == res["trials"]),
        ("projection slacks within tolerance", res["max_slack"] <= 1e-9),
        ("tree hull sample is 0-hyperbolic", res["tree_sample_delta"]["delta"] == 0.0),
    ]
    import numpy as np

    from .metrics import FiniteMetricSpace

    tree = FiniteMetricSpace(res["tree_matrix"], validate=False)
    sample = [kuratowski_embed(i, tree) for i in range(tree.size)]
    rows = [[float(sup_distance(f, g)) for g in sample] for f in sample]
    defect = quadruple_defect(np.array(rows), tuple(res["tree_sample_delta"]["witness"]))
    checks.append(
        ("tree delta witness re-evaluates", abs(defect - res["tree_sample_delta"]["raw_max"]) <= 1e-12)
    )
    return checks


def _cone_off_inputs(cfg):
    """The ball, the part of the cyclic orbit <h> inside it, and A."""
    params = cfg.get("parameters", {})
    oracle = group_from_spec(cfg["group"])
    radius = int(params.get("radius", 4))
    ball = oracle.enumerate_ball(radius, max_size=_budget(cfg, "ball_cap", 2_000_000))
    h = oracle.parse_element(params.get("orbit", "a"))
    orbit = [g for g in ball.elements if _in_cyclic(oracle, g, h, radius)]
    return ball, orbit, float(params.get("A", 1))


def _run_cone_off(cfg):
    ball, orbit, A = _cone_off_inputs(cfg)
    res = cone_off(ball, orbit, A)
    violations = [
        (x, y)
        for x, y in res.new_edges
        if res.orbit_distance[x] <= A or res.orbit_distance[y] <= A
    ]
    result = {
        "radius": ball.radius,
        "A": A,
        "orbit_size": len(orbit),
        "new_edges": len(res.new_edges),
        "violations": violations,
        "warnings": res.warnings,
        "edge_rows": [
            [ball.words[x], ball.words[y], res.orbit_distance[x], res.orbit_distance[y]]
            for x, y in res.new_edges
        ],
    }
    table = (
        "new_edges",
        ["x", "y", "orbit_dist_x", "orbit_dist_y"],
        result["edge_rows"],
    )
    return result, [table]


def _in_cyclic(oracle, g, h, radius):
    power = oracle.identity()
    for _ in range(radius + 1):
        if oracle.equal(g, power):
            return True
        power = oracle.multiply(power, h)
    power = oracle.identity()
    hi = oracle.invert(h)
    for _ in range(radius + 1):
        if oracle.equal(g, power):
            return True
        power = oracle.multiply(power, hi)
    return False


def _verify_cone_off(summary):
    import numpy as np

    res = summary["result"]
    rows = res["edge_rows"]
    ball, orbit, A = _cone_off_inputs(summary["config"])
    D0 = graph_metric_matrix(ball)
    orbit_dist = set_distance(D0, [ball.index[g] for g in orbit])
    # the in-ball graph's edges are its pairs at distance 1
    D_allowed = induced_metric(D0 == 1, orbit_dist > A + ZERO_TOL)
    index = {word: i for i, word in enumerate(ball.words)}
    count = 2 * len(rows)
    ends = np.fromiter((index.get(w, -1) for row in rows for w in row[:2]), np.int64, count)
    stored = np.fromiter((d for row in rows for d in row[2:]), np.float64, count)
    found = bool((ends >= 0).all())
    if not found:
        ends = stored = ends[:0]
    x, y = ends.reshape(-1, 2).T
    return [
        ("no recorded violations", not res["violations"]),
        ("new_edges counts the edge rows", res["new_edges"] == len(rows)),
        ("every edge row names two ball vertices", found),
        (
            "recomputed orbit distances of every new edge match and exceed A",
            found and np.array_equal(stored, orbit_dist[ends]) and bool((stored > A).all()),
        ),
        ("every new edge joins vertices at in-ball distance >= 2", found and bool((D0[x, y] >= 2).all())),
        (
            "some geodesic of every new edge avoids the A-neighborhood",
            found and np.array_equal(D_allowed[x, y], D0[x, y]),
        ),
    ]


def _run_isotropy_probe(cfg):
    params = cfg.get("parameters", {})
    oracle = group_from_spec(cfg["group"])
    radius = int(params.get("radius", 3))
    D = float(params.get("D", 2))
    pairs = int(params.get("pairs", 10))
    ball = oracle.enumerate_ball(radius, max_size=_budget(cfg, "ball_cap", 2_000_000))
    report = isotropy_probe(oracle, ball, D, pairs, seed=int(cfg.get("seed", 0)))
    fmt = oracle.format_element
    result = {
        "D": D,
        "pairs_checked": report.pairs_checked,
        "successes": report.successes,
        "success_rate": report.success_rate,
        "hardest": None
        if report.hardest is None
        else {
            "pair": [fmt(report.hardest.x), fmt(report.hardest.y), fmt(report.hardest.x2), fmt(report.hardest.y2)],
            "distance": report.hardest.distance,
            "best_constant": report.hardest.best_constant,
            "best_g": fmt(report.hardest.best_g),
        },
        "failures": [
            {
                "pair": [fmt(r.x), fmt(r.y), fmt(r.x2), fmt(r.y2)],
                "best_constant": r.best_constant,
                "best_g": fmt(r.best_g),
            }
            for r in report.failures
        ],
    }
    return result, []


def _verify_isotropy_probe(summary):
    from .words import tree_distance

    cfg = summary["config"]
    res = summary["result"]
    oracle = group_from_spec(cfg["group"])
    if res["hardest"] is None:
        return [("no pairs sampled", True)]
    x, y, x2, y2 = (oracle.parse_element(w) for w in res["hardest"]["pair"])
    g = oracle.parse_element(res["hardest"]["best_g"])
    c = max(
        tree_distance(oracle.multiply(g, x), x2),
        tree_distance(oracle.multiply(g, y), y2),
    )
    return [
        ("hardest pair constant re-evaluates", abs(c - res["hardest"]["best_constant"]) <= 1e-12),
        ("equidistance holds", tree_distance(x, y) == tree_distance(x2, y2)),
    ]


RUNNERS = {
    "delta": _run_delta,
    "tau": _run_tau,
    "compress": _run_compress,
    "borel-order": _run_borel_order,
    "qm-certify": _run_qm_certify,
    "sl2-embed": _run_sl2_embed,
    "tightspan": _run_tightspan,
    "cone-off": _run_cone_off,
    "isotropy-probe": _run_isotropy_probe,
}

VERIFIERS = {
    "delta": _verify_delta,
    "tau": _verify_tau,
    "compress": _verify_compress,
    "borel-order": _verify_borel_order,
    "qm-certify": _verify_qm_certify,
    "sl2-embed": _verify_sl2_embed,
    "tightspan": _verify_tightspan,
    "cone-off": _verify_cone_off,
    "isotropy-probe": _verify_isotropy_probe,
}


def run_experiment(cfg):
    """Dispatch a validated config; returns (summary dict, tables)."""
    import time

    experiment = cfg["experiment"]
    started = time.perf_counter()
    result, tables = RUNNERS[experiment](cfg)
    elapsed = time.perf_counter() - started
    time_cap = cfg.get("budgets", {}).get("time_cap")
    if time_cap is not None and elapsed > float(time_cap):
        raise BudgetExceeded(
            f"run took {elapsed:.1f}s, over the time cap {time_cap}s",
            extent={"elapsed_seconds": elapsed},
        )
    summary = {
        "format": FORMAT_VERSION,
        "tool": "hypactions",
        "version": __version__,
        "experiment": experiment,
        "config": cfg,
        "status": "ok",
        "result": result,
    }
    return summary, tables


def _write_outputs(outdir: Path, summary, tables):
    outdir.mkdir(parents=True, exist_ok=True)
    summary_path = outdir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for name, header, rows in tables:
        with open(outdir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return summary_path


def cmd_run(args) -> int:
    cfg_path = Path(args.config)
    try:
        cfg = json.loads(cfg_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    problems = validate_config(cfg)
    if problems:
        for p in problems:
            print(f"config error at {p}", file=sys.stderr)
        return EXIT_VALIDATION
    outdir = Path(args.output) if args.output else cfg_path.with_suffix(".out")
    try:
        summary, tables = run_experiment(cfg)
    except BudgetExceeded as exc:
        summary = {
            "format": FORMAT_VERSION,
            "tool": "hypactions",
            "version": __version__,
            "experiment": cfg["experiment"],
            "config": cfg,
            "status": "budget-exceeded",
            "error": str(exc),
            "extent": exc.extent,
        }
        path = _write_outputs(outdir, summary, [])
        print(f"budget exceeded; partial summary at {path}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, CertificateError) as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    path = _write_outputs(outdir, summary, tables)
    print(path)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        summary = json.loads(Path(args.summary).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read summary: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if summary.get("status") != "ok":
        print(f"summary status is {summary.get('status')!r}; nothing to verify", file=sys.stderr)
        return EXIT_VALIDATION
    experiment = summary.get("experiment")
    if experiment not in VERIFIERS:
        print(f"unknown experiment {experiment!r}", file=sys.stderr)
        return EXIT_VALIDATION
    checks = VERIFIERS[experiment](summary)
    all_ok = True
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_VALIDATION


def cmd_schema(_args) -> int:
    print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypactions",
        description="batch experiments on group actions: run, verify, schema",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a config JSON file")
    p_run.add_argument("-o", "--output", help="output directory (default: <config>.out)")
    p_run.set_defaults(fn=cmd_run)
    p_verify = sub.add_parser("verify", help="re-check all witnesses in a summary")
    p_verify.add_argument("summary", help="path to a summary JSON file")
    p_verify.set_defaults(fn=cmd_verify)
    p_schema = sub.add_parser("schema", help="print the config schema")
    p_schema.set_defaults(fn=cmd_schema)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
