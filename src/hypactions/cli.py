"""Batch experiment driver: `run <config.json>`, `verify <summary.json>`,
`schema`.

Every run is fully determined by (config, tool version); the config is echoed
into the summary, all randomness is seeded, and re-running a config produces
a byte-identical `summary.json`, the one file a run writes, as one line of
compact, key-sorted JSON (`python -m json.tool` prints it indented).  Exit codes:
0 success, 1 validation error, 2 budget exceeded.  `verify` re-derives each
claim from the config echoed in the summary by one rule (`_rederived`): it
re-derives the result and encodes the summary with it once, as `run` would
write it.  When that text has the SHA-256 digest of the file read, every
result key passes; otherwise (a forged, edited or re-indented file) it
compares the stored result with the fresh one key by key to name the keys
that differ.  Then it checks the few claims that equality cannot show.
Seven experiments re-run.
`delta` re-evaluates its stored witness in place of the four-point scan and,
when exhaustive, checks `raw_max` against every defect at basepoint 0
(`_replay_delta`); `cone-off` derives its edges from the induced metric on
the whole ball (`_replay_cone_off`).

Each experiment is declared once, in `EXPERIMENTS`: the group kinds it
accepts, its parameters (type, default, bound), its runner and its verifier.
`parse_config` checks a config against the declarations in one walk and
returns typed values; validation, `run`, `verify` and `schema` all read it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import random
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

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
from .errors import BudgetExceeded, ToolkitError
from .groups import BSOracle, FreeGroupOracle, GroupOracle
from .loxodromic import isotropy_probe, translation_length_estimate, translation_length_exact, tree_length
from .metrics import (
    ZERO_TOL,
    ConeOffResult,
    DeltaEstimate,
    basepoint_scan,
    boundary_warnings,
    cone_off,
    edge_rows,
    four_point_delta,
    free_ball_distance_matrix,
    graph_metric_matrix,
    induced_metric,
    quadruple_budget,
    quadruple_defect,
    random_rational_metric,
    random_tree_metric,
    set_distance,
)
from .quasimorphism import anisotropy_certificate, brooks_qm, exponent_sum_qm, is_proper_power
from .sl2 import (
    RealEmbedding,
    SL2Oracle,
    _is_square_free,
    embedding_spectrum_compare,
    lemma_emb_matrix,
    mat2,
    parse_qfe,
)
from .tightspan import hull_sample_delta, kuratowski_embed, project_to_hull, sup_distance
from .words import FreeWord

FORMAT_VERSION = 1
EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2

# ---------------------------------------------------------------------------
# declarations

REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One config value: its type, its default (REQUIRED if none), a bound.

    `type` is int, float (ints convert), str, dict (any object), a tuple of
    alternatives (literal strings or objects), a list [Field] of items, or a
    dict of Fields (an object with exactly those keys).  `bound` is (text,
    test on the converted value).
    """

    type: object
    default: object = REQUIRED
    bound: tuple | None = None


def at_least(low):
    return (f">= {low}", lambda v: v >= low)


NONZERO = ("!= 0", lambda v: v != 0)
TYPE_NAMES = {int: "int", float: "number", str: "string", dict: "object"}

GROUPS = {  # kind: (its fields, its oracle from the typed group)
    "free": ({"rank": Field(int, 2, at_least(1))}, lambda g: FreeGroupOracle(g["rank"])),
    "bs": ({"m": Field(int, bound=NONZERO), "n": Field(int, bound=NONZERO)}, lambda g: BSOracle(g["m"], g["n"])),
    "sl2": ({"field": Field({"d": Field(int, 2, ("square-free and >= 2", _is_square_free))}, {})},
            lambda g: SL2Oracle(d=g["field"]["d"])),
}
TOP = {
    "format": Field(int, FORMAT_VERSION, (f"{FORMAT_VERSION}", lambda v: v == FORMAT_VERSION)),
    "budgets": Field({
        "ball_cap": Field(int, 2_000_000, at_least(1)),
        "quadruple_cap": Field(int, 200_000_000, at_least(1)),
        "probe_cap": Field(int, 2_000_000, at_least(1)),
        "time_cap": Field(float, None, at_least(0)),  # seconds, checked when the run ends
    }, {}),
    "seed": Field(int, 0, at_least(0)),
}


@dataclass(frozen=True)
class Experiment:
    groups: tuple[str, ...]
    parameters: dict[str, Field]
    run: Callable  # Config -> result
    verify: Callable  # (Config, result, matches_file) -> [(label, ok)]
    check: Callable | None = None  # (group, parameters) -> problems no single field can see


@dataclass(frozen=True)
class Config:
    """A checked config: typed parameters and budgets, defaults filled in."""

    experiment: str
    oracle: GroupOracle
    params: dict
    budgets: dict
    seed: int
    raw: dict  # the user's config, echoed verbatim into the summary


def _join(path, key):
    return f"{path}.{key}" if path else key


def _walk(field, value, path, problems):
    """`value` converted as `field` declares; offending paths go to `problems`."""
    t, where = field.type, path or "$"
    if isinstance(t, dict):
        if type(value) is not dict:
            problems.append(f"{where}: must be an object")
            return None
        out = {}
        for key, sub in t.items():
            if key in value:
                out[key] = _walk(sub, value[key], _join(path, key), problems)
            elif sub.default is REQUIRED:
                problems.append(f"{_join(path, key)}: required")
            elif isinstance(sub.type, dict):  # a missing object gets its fields' defaults
                out[key] = _walk(sub, sub.default, _join(path, key), problems)
            else:
                out[key] = sub.default
        problems.extend(f"{_join(path, key)}: unknown key" for key in value if key not in t)
        return out
    if isinstance(t, tuple):
        shapes = [alt for alt in t if isinstance(alt, dict)]
        if type(value) is dict and shapes:
            return _walk(Field(shapes[0]), value, path, problems)
        if type(value) is not str or value not in t:
            options = (alt if isinstance(alt, str) else "{" + ", ".join(f'"{k}": ...' for k in alt) + "}" for alt in t)
            problems.append(f"{where}: must be one of {' | '.join(options)}")
            return None
        return value
    if isinstance(t, list):
        if type(value) is not list:
            problems.append(f"{where}: must be a list")
            return None
        value = [_walk(t[0], item, f"{path}[{i}]", problems) for i, item in enumerate(value)]
    elif t is float and type(value) in (int, float):
        # json.loads reads NaN, Infinity and ints past the float range; JSON has no such numbers
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
        if not math.isfinite(value):
            problems.append(f"{where}: must be a finite number")
            return None
    elif type(value) is not t:
        problems.append(f"{where}: must be of type {TYPE_NAMES[t]}")
        return None
    if field.bound and not field.bound[1](value):
        problems.append(f"{where}: must be {field.bound[0]}")
    return value


def parse_config(cfg):
    """Check a config against the declarations in one walk.

    Returns (Config, []) when it is valid, else (None, offending paths): wrong
    type, out of range, missing required field, unknown key, a group kind
    the experiment does not accept, or parameters that do not fit the group.
    """
    name, group = (cfg.get("experiment"), cfg.get("group")) if type(cfg) is dict else (None, None)
    experiment = EXPERIMENTS.get(name) if type(name) is str else None
    kind = group.get("kind") if type(group) is dict else None
    declared = {
        **TOP,
        "group": Field({
            "kind": Field(experiment.groups if experiment else tuple(GROUPS)),
            **(GROUPS[kind][0] if type(kind) is str and kind in GROUPS else {}),
        }),
        "experiment": Field(tuple(EXPERIMENTS)),
        "parameters": Field(experiment.parameters if experiment else dict, {}),
    }
    problems = []
    typed = _walk(Field(declared), cfg, "", problems)
    if not problems and experiment.check:
        problems = experiment.check(typed["group"], typed["parameters"])
    if problems:
        return None, problems
    oracle = GROUPS[kind][1](typed["group"])
    return Config(name, oracle, typed["parameters"], typed["budgets"], typed["seed"], cfg), []


def validate_config(cfg) -> list[str]:
    """Return the list of offending paths (empty when the config is valid)."""
    return parse_config(cfg)[1]


def _describe(field):
    """The schema entry of one declaration."""
    t = field.type
    if isinstance(t, dict):
        entry = {"type": "object", "fields": _describe_all(t)}
    elif isinstance(t, tuple):
        entry = {"type": "one of", "options": [alt if isinstance(alt, str) else _describe_all(alt) for alt in t]}
    elif isinstance(t, list):
        entry = {"type": "list", "items": _describe(t[0])}
    else:
        entry = {"type": TYPE_NAMES[t]}
    if field.bound:
        entry["bound"] = field.bound[0]
    entry.update({"required": True} if field.default is REQUIRED else {"default": field.default})
    return entry


def _describe_all(fields):
    return {key: _describe(field) for key, field in fields.items()}


def schema():
    """Every declaration, as printed by `hypactions schema`."""
    return {
        **_describe_all(TOP),
        "group": {kind: _describe_all(fields) for kind, (fields, _) in GROUPS.items()},
        "experiment": {
            name: {"groups": list(e.groups), "parameters": _describe_all(e.parameters)}
            for name, e in EXPERIMENTS.items()
        },
    }


def _json_text(value) -> str:
    """`value` as the compact, key-sorted JSON text that `run` writes.

    Values are trees built by a runner or by `json.loads`, never cyclic, so
    the encoder skips its cycle check.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), check_circular=False)


def _json_pieces(value, depth):
    """`_json_text(value)` in pieces: one encode per value `depth` dict levels
    down.

    The C encoder keeps a string for every token until it returns, 10 to 15
    bytes of memory per byte of text, so a summary encoded one result key at
    a time peaks at its largest key instead of at the whole summary.
    """
    if depth == 0 or type(value) is not dict or not value:
        yield _json_text(value)
        return
    for i, (key, item) in enumerate(sorted(value.items())):
        yield ("," if i else "{") + json.dumps(key) + ":"
        yield from _json_pieces(item, depth - 1)
    yield "}"


def _sha256(pieces) -> bytes:
    """The SHA-256 digest of the concatenated text `pieces`."""
    import hashlib  # loads OpenSSL, about 9 ms and 3.5 MB of RSS that only `verify` needs

    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece.encode())
    return digest.digest()


# ---------------------------------------------------------------------------
# experiment implementations


def _delta_inputs(c):
    """The ball and its distances: word metric on free groups, else the in-ball graph metric."""
    ball = c.oracle.enumerate_ball(c.params["radius"], max_size=c.budgets["ball_cap"])
    quadruple_budget(len(ball), c.params["mode"], c.params["count"], c.budgets["quadruple_cap"])
    if isinstance(c.oracle.identity(), FreeWord):
        return ball, free_ball_distance_matrix(ball), "word"
    return ball, graph_metric_matrix(ball), "in-ball graph"


def _delta(c, estimate):
    """The delta result, with the DeltaEstimate that `estimate(ball, D)` gives."""
    ball, D, metric_kind = _delta_inputs(c)
    est = estimate(ball, D)
    return {
        "ball_size": len(ball),
        "metric": metric_kind,
        "delta": est.to_json(),
        "witness_distances": [[float(D[a, b]) for b in est.witness] for a in est.witness],
    }


def _run_delta(c):
    return _delta(c, lambda ball, D: four_point_delta(
        D, mode=c.params["mode"], count=c.params["count"], seed=c.seed,
        quadruple_cap=c.budgets["quadruple_cap"], labels=ball.words))


def _replay_delta(c, res):
    """The delta result with the stored witness re-evaluated in place of the
    scan, which shows that the witness attains `raw_max`; and, on an
    exhaustive summary, the claim that `raw_max` is at least the largest
    defect with basepoint 0 (`metrics.basepoint_scan`, n^3 defects): a real
    quadruple beating it proves that `raw_max` is not the maximum, and
    delta <= 2 delta_0 proves that it is, where the witness reaches it.  A
    witness that is not four int indices into the ball (numpy would wrap -1
    to the last point) becomes (0, 0, 0, 0), which it is not."""
    stored = res.get("delta")
    witness, raw_max = (stored.get("witness"), stored.get("raw_max")) if type(stored) is dict else (None, None)
    claims = []

    def replay(ball, D):
        in_ball = type(witness) is list and len(witness) == 4 and all(
            type(i) is int and 0 <= i < len(ball) for i in witness)
        quad = witness if in_ball else [0, 0, 0, 0]
        replayed = float(quadruple_defect(D, quad))
        mode, count = c.params["mode"], c.params["count"]
        sampled = mode == "sampled"
        if not sampled:
            at_0 = basepoint_scan(D, 0)[0]
            claims.append((f"raw_max is at least the largest defect at basepoint 0, {at_0}",
                           type(raw_max) is float and raw_max >= at_0))
            if in_ball and type(raw_max) is float and replayed == raw_max and 2 * at_0 <= raw_max:
                claims.append((f"raw_max is the maximum: the witness reaches it and every defect "
                               f"is at most 2 delta_0 = {2 * at_0}", True))
        return DeltaEstimate(max(0.0, replayed), replayed, tuple(quad), sampled,
                             quadruple_budget(len(ball), mode, count, c.budgets["quadruple_cap"]),
                             c.seed if sampled else None, ball.words)

    return _delta(c, replay), claims


def _run_tau(c):
    g = c.oracle.parse_element(c.params["g"])
    # upper and exact both measure g's tree: word length on free groups, t-syllables on BS
    est = translation_length_estimate(g, tree_length, c.params["horizon"])
    return {
        "g": c.oracle.format_element(g),
        "length": "word" if isinstance(g, FreeWord) else "t-syllable",
        "horizon": c.params["horizon"],
        "upper": est.upper,
        "trace": est.trace,
        "exact": translation_length_exact(g),
        "non_increasing": est.is_non_increasing(),
    }


def _run_compress(c):
    W = CompressedGenSet(c.oracle.rank, [(f["w"], f["cap"]) for f in c.params["families"]])
    alpha = c.params["alpha"]
    reports = [
        verify_length_bounds(j, k, W, alpha, budget=c.budgets["probe_cap"]).to_json()
        for j in range(len(W.families))
        for k in range(1, c.params["k_max"] + 1)
    ]
    # the paper-style alpha depends on the quasi-geodesity constant of the
    # family words; cyclically reduced words have stretch 1
    K_measured = max(len(w) / max(translation_length_exact(w), 1) for w, _ in W.families)
    return {
        "genset": W.to_json(),
        "alpha": alpha,
        "K_measured": K_measured,
        "reports": reports,
        "min_fitted_alpha": min(r["fitted_alpha"] for r in reports),
        "all_upper_ok": all(r["upper_ok"] for r in reports),
        "all_lower_ok": all(r["lower_ok"] for r in reports),
    }


def _bounds_hold(c, res):
    """ceil(k/n) >= exact >= alpha*k/n - 2 and the fitted alpha, in every stored report."""
    return all(
        rep["exact_length"] <= -(-rep["k"] // rep["cap"])
        and rep["exact_length"] >= rep["alpha"] * rep["k"] / rep["cap"] - 2 - 1e-12
        and abs(rep["fitted_alpha"] - (rep["exact_length"] + 2) * rep["cap"] / rep["k"]) <= 1e-9
        for rep in res["reports"]
    )


def _run_borel_order(c):
    config = BorelMapConfig(c.oracle.rank, c.params["families"], c.params["N"])
    r = PiPrefix(tuple(c.params["r"]))
    s = PiPrefix(tuple(c.params["s"]))
    rep = order_preservation_check(r, s, config)
    cmp = qks_compare(r, s)
    return {
        "r": list(r.values),
        "s": list(s.values),
        "sup_diff": cmp.sup_diff,
        "max_abs_diff": cmp.max_abs_diff,
        "bound": rep.bound,
        "generators_checked": rep.generators_checked,
        "max_length": rep.max_length,
        "max_ratio": rep.max_ratio,
        "violations": rep.violations,
    }


def _word_problems(group, words, nonidentity=()):
    """A problem for each word {parameter key: text} that does not parse in
    the group, or that is the identity when its key is in `nonidentity`."""
    oracle = GROUPS[group["kind"]][1](group)
    problems = []
    for key, text in words.items():
        try:
            if not oracle.parse_element(text) and key in nonidentity:
                problems.append(f"parameters.{key}: must not be the identity")
        except ValueError as exc:
            problems.append(f"parameters.{key}: {exc}")
    return problems


def _check_word(key):
    """The check that the parameter `key` is a word of the group."""
    return lambda group, params: _word_problems(group, {key: params[key]})


def _check_qm_certify(group, params):
    """The exponent sum and t-syllables need a bs group, a counting word a
    free one; `g` and a counting word other than 1 must parse in it."""
    kind, qm, words = group["kind"], params["qm"], {"g": params["g"]}
    problems = []
    if kind == "bs" and qm != "exponent-sum":
        problems.append('parameters.qm: must be "exponent-sum" on a bs group')
    elif kind == "free" and qm == "exponent-sum":
        problems.append('parameters.qm: must be {"brooks": ...} on a free group')
    elif kind == "free":
        words["qm.brooks"] = qm["brooks"]
    if kind == "free" and params["length"] == "t-syllable":
        problems.append("parameters.length: t-syllable needs a bs group")
    return problems + _word_problems(group, words, nonidentity=("qm.brooks",))


def _qm(c):
    qm = c.params["qm"]
    return exponent_sum_qm() if qm == "exponent-sum" else brooks_qm(c.oracle.parse_element(qm["brooks"]))


def _run_qm_certify(c):
    params, oracle = c.params, c.oracle
    g = oracle.parse_element(params["g"])
    ball = oracle.enumerate_ball(params["radius"], max_size=c.budgets["ball_cap"])
    length_kind = params["length"] or ("t-syllable" if isinstance(g, BSElement) else "word")
    if length_kind == "word":
        lengths = [float(r) for r in ball.lengths]
    else:
        lengths = [float(h.t_syllable_count()) for h in ball.elements]
    q = _qm(c)
    cert = anisotropy_certificate(oracle, q, lengths, g, ball, c.budgets["ball_cap"])
    result = {"qm": params["qm"], "length": length_kind, "certificate": cert.to_json(fmt=oracle.format_element)}
    if q.counting_word is not None:
        result["proper_power"] = is_proper_power(q.counting_word)
    return result


def _defect_replays(c, r):
    """|q(gh) - q(g) - q(h)| on the stored witness pair is the stored
    defect, and the pair is null exactly when the defect is 0."""
    defect = r["certificate"]["defect"]
    if defect["witness_pair"] is None:
        return defect["value"] == 0
    g, h = map(c.oracle.parse_element, defect["witness_pair"])
    q = _qm(c)
    return defect["value"] != 0 and abs(q(g * h) - q(g) - q(h)) == defect["value"]


def _check_sl2_embed(group, params):
    """x must be an element of the group's field Q(sqrt(d))."""
    try:
        parse_qfe(params["x"], group["field"]["d"])
    except ValueError as exc:
        return [f"parameters.x: {exc}"]
    return []


def _run_sl2_embed(c):
    # the word ball of <A, T>, A = [[x, x^2 - 1], [1, x]], T = [[1, 1], [0, 1]]
    d = c.oracle.d
    x = parse_qfe(c.params["x"], d)
    oracle = SL2Oracle(d=d, gens=[lemma_emb_matrix(x), mat2([[1, 1], [0, 1]], d)], names=["A", "T"])
    ball = oracle.enumerate_ball(c.params["radius"], max_size=c.budgets["ball_cap"])
    rows, witnesses = embedding_spectrum_compare(ball, RealEmbedding(1), RealEmbedding(-1))
    return {
        "d": d,
        "x": str(x),
        "rows": rows,
        "witnesses": witnesses,
        "matrices": {  # exact entries of every ball element, keyed by its word
            word: [[{"a": str(e.a), "b": str(e.b)} for e in pair] for pair in ((M.a, M.b), (M.c, M.d))]
            for word, M in zip(ball.words, ball.elements)
        },
        "equivalent_profiles": not witnesses,
    }


def _run_tightspan(c):
    # random.Random(seed) draws the Kuratowski metrics, then each projection
    # trial's metric and start (a random row of the metric plus quarter-integer
    # noise in [0, 3], one draw per point), then the random tree, whose hull
    # sample the quadruple cap bounds before any draw
    n, tree_points = c.params["points"], c.params["tree_points"]
    cap = c.budgets["quadruple_cap"]
    quadruple_budget(tree_points, "exhaustive", None, cap)
    rng = random.Random(c.seed)
    isometric = 0
    for _ in range(c.params["trials"]):
        rows = random_rational_metric(n, rng).rows
        # x -> d(x, .) is isometric when sup_t |d(i, t) - d(j, t)| = d(i, j); both
        # sides are symmetric and vanish on the diagonal, so pairs j < i decide;
        # quarter-integer distances compare exactly
        isometric += all(sup_distance(r, s) == r[j]
                         for i, r in enumerate(rows) for j, s in enumerate(rows[:i]))
    for _ in range(c.params["proj_trials"]):
        X = random_rational_metric(n, rng)
        # quarter-integers keep the sweep exact; it raises unless it lands on the hull
        project_to_hull([v + math.floor(rng.random() * 13) / 4 for v in X.rows[rng.randrange(n)]], X)
    tree = random_tree_metric(tree_points, rng)
    sample = [kuratowski_embed(i, tree) for i in range(tree.size)]
    return {
        "points": n,
        "trials": c.params["trials"],
        "kuratowski_exact_isometric": isometric,
        "projection_trials": c.params["proj_trials"],
        "tree_sample_delta": hull_sample_delta(tree, sample, cap).to_json(),
        "tree_matrix": tree.rows,
    }


def _cone_off(c, coned):
    """The cone-off result, with the ConeOffResult that `coned(ball, orbit, A)` gives."""
    oracle, radius, A = c.oracle, c.params["radius"], c.params["A"]
    ball = oracle.enumerate_ball(radius, max_size=c.budgets["ball_cap"])
    h = oracle.parse_element(c.params["orbit"])
    powers = {h**k for k in range(-radius, radius + 1)}
    orbit = [g for g in ball.elements if g in powers]  # {h^k : |k| <= radius}, in ball order
    res = coned(ball, orbit, A)
    return {
        "radius": radius,
        "A": A,
        "orbit_size": len(orbit),
        "new_edges": len(res.new_edges),
        "warnings": res.warnings,
        "vertices": ball.words,
        "orbit_distance": res.orbit_distance,
        "edges": edge_rows(res.new_edges, len(ball)),  # row i: each j > i joined to i
    }


def _run_cone_off(c):
    return _cone_off(c, cone_off)


def _replay_cone_off(c, res):
    """The cone-off result derived without `metrics.cone_off`, from the induced
    metric on the whole ball rather than its block outside the neighborhood:
    a check of that shortcut, and `cone_off` stays a call of `run` alone."""

    def coned(ball, orbit, A):
        D0 = graph_metric_matrix(ball)
        orbit_dist = set_distance(D0, [ball.index[g] for g in orbit])
        allowed = orbit_dist > A + ZERO_TOL
        # the in-ball graph's edges are its pairs at distance 1
        D_allowed = induced_metric(D0 == 1, allowed)
        edges = np.argwhere(np.triu(np.isfinite(D0) & (D0 >= 2) & (D_allowed == D0), 1))
        return ConeOffResult(edges, np.flatnonzero(~allowed).tolist(),
                             boundary_warnings(D0, ball.radius), orbit_dist.tolist())

    return _cone_off(c, coned), []


def _run_isotropy_probe(c):
    ball = c.oracle.enumerate_ball(c.params["radius"], max_size=c.budgets["ball_cap"])
    report = isotropy_probe(ball, c.params["D"], c.params["pairs"], seed=c.seed)
    fmt = c.oracle.format_element
    hardest = report.hardest

    def pair(r):
        return [fmt(r.x), fmt(r.y), fmt(r.x2), fmt(r.y2)]

    return {
        "D": c.params["D"],
        "pairs_checked": report.pairs_checked,
        "successes": report.successes,
        "success_rate": report.success_rate,
        "hardest": None if hardest is None else {
            "pair": pair(hardest),
            "distance": hardest.distance,
            "best_constant": hardest.best_constant,
            "best_g": fmt(hardest.best_g),
        },
        "failures": [
            {"pair": pair(r), "best_constant": r.best_constant, "best_g": fmt(r.best_g)}
            for r in report.failures
        ],
    }


# a stored result of the wrong shape, or one naming elements that do not parse
MALFORMED = (ArithmeticError, AttributeError, LookupError, TypeError, ValueError, ToolkitError)


def _holds(claim, c, res):
    try:
        return claim(c, res)
    except MALFORMED:
        return False


def _rederived(*claims, fresh=None):
    """The verifier of an experiment whose whole result re-derives from its config.

    It re-runs the experiment's runner, or calls `fresh(config, stored
    result)` when one is given, which returns a fresh result and the
    (label, ok) claims that only its replay can check.  It compares the
    stored result with the fresh one as JSON text written the way `run`
    writes it: a stored `1` does not pass for a fresh `true` or `1.0`.  The
    comparison encodes once: `matches_file(fresh result)` says whether the
    summary holding the fresh result encodes to the file read, matched by
    SHA-256 digest, and then every key passes.  Only a file that does not match (forged, edited or
    indented) is compared key by key, to name the keys that differ.  Each
    (label, predicate) claim is checked on the config and the stored
    result: what equality with a re-run cannot show.
    """

    def verify(c, res, matches_file):
        fresh_result, replay_claims = fresh(c, res) if fresh else (EXPERIMENTS[c.experiment].run(c), [])
        keys = [*fresh_result, *(key for key in res if key not in fresh_result)]
        whole = matches_file(fresh_result)
        checks = [
            (f"{key} re-derives from the config",
             whole or key in res and key in fresh_result and _json_text(res[key]) == _json_text(fresh_result[key]))
            for key in keys
        ]
        return checks + replay_claims + [(label, _holds(claim, c, res)) for label, claim in claims]

    return verify


EXPERIMENTS = {
    "delta": Experiment(("free", "bs", "sl2"), {
        "radius": Field(int, 3, at_least(0)),
        "mode": Field(("exhaustive", "sampled"), "exhaustive"),
        "count": Field(int, 1_000_000, at_least(1)),  # quadruples drawn in sampled mode
    }, _run_delta, _rederived(fresh=_replay_delta)),
    "tau": Experiment(("free", "bs"), {
        "g": Field(str),
        "horizon": Field(int, 8, at_least(1)),
    }, _run_tau, _rederived(
        ("upper bound dominates the exact value",
         lambda c, r: r["upper"] >= r["exact"] - 1e-12),
    ), _check_word("g")),
    "compress": Experiment(("free",), {
        "families": Field([Field({"w": Field(str), "cap": Field(int, bound=at_least(1))})], bound=("non-empty", bool)),
        "k_max": Field(int, 12, at_least(1)),
        "alpha": Field(float, 0.0005),
    }, _run_compress, _rederived(("bounds re-check", _bounds_hold))),
    "borel-order": Experiment(("free",), {
        "r": Field([Field(int)]),
        "s": Field([Field(int)]),
        "families": Field([Field(str)]),
        "N": Field([Field(int)]),
    }, _run_borel_order, _rederived(
        ("no violations", lambda c, r: not r["violations"]),
        ("max length within bound", lambda c, r: r["max_length"] <= r["bound"]),
    )),
    "qm-certify": Experiment(("free", "bs"), {
        "g": Field(str),
        "radius": Field(int, 4, at_least(0)),
        "length": Field(("t-syllable", "word"), None),  # None: t-syllable on bs groups, else word
        "qm": Field(("exponent-sum", {"brooks": Field(str)}), "exponent-sum"),
    }, _run_qm_certify, _rederived(
        ("homogenized value is nonzero", lambda c, r: r["certificate"]["homogenized_value"] != 0),
        # |q(g^n)| <= M l(g^n) + M for every n forces a zero homogenization when M = 0
        ("subordination M is positive beside a nonzero homogenized value",
         lambda c, r: r["certificate"]["homogenized_value"] == 0 or r["certificate"]["subordination_M"] > 0),
        ("defect witness pair replays to the defect value", _defect_replays),
    ), _check_qm_certify),
    "sl2-embed": Experiment(("sl2",), {
        "x": Field(str, "sqrt2-1"),
        "radius": Field(int, 1, at_least(0)),
    }, _run_sl2_embed, _rederived(), _check_sl2_embed),
    "tightspan": Experiment(tuple(GROUPS), {  # the group is not used
        "points": Field(int, 4, ("in 1..128 (distinct points come from redrawing the whole set)",
                                 lambda v: 1 <= v <= 128)),
        "trials": Field(int, 20, at_least(0)),
        "proj_trials": Field(int, 20, at_least(0)),
        "tree_points": Field(int, 6, at_least(1)),
    }, _run_tightspan, _rederived(
        ("all Kuratowski embeddings exactly isometric", lambda c, r: r["kuratowski_exact_isometric"] == r["trials"]),
        ("tree hull sample is 0-hyperbolic", lambda c, r: r["tree_sample_delta"]["delta"] == 0.0),
    )),
    "cone-off": Experiment(("free", "bs"), {
        "radius": Field(int, 4, at_least(0)),
        "orbit": Field(str, "a"),
        "A": Field(float, 1.0, at_least(0)),
    }, _run_cone_off, _rederived(fresh=_replay_cone_off), _check_word("orbit")),
    "isotropy-probe": Experiment(("free",), {
        "radius": Field(int, 3, at_least(1)),
        "D": Field(float, 2.0),
        "pairs": Field(int, 10, at_least(0)),
    }, _run_isotropy_probe, _rederived()),
}
VERIFIERS = {name: e.verify for name, e in EXPERIMENTS.items()}


def _envelope(c, status, **fields):
    return {"format": FORMAT_VERSION, "tool": "hypactions", "version": __version__,
            "experiment": c.experiment, "config": c.raw, "status": status, **fields}


def run_experiment(c):
    """Run a parsed config; returns its summary."""
    started = time.perf_counter()
    result = EXPERIMENTS[c.experiment].run(c)
    elapsed = time.perf_counter() - started
    time_cap = c.budgets["time_cap"]
    if time_cap is not None and elapsed > time_cap:
        raise BudgetExceeded(
            f"run took {elapsed!r}s, over the time cap {time_cap}s",
            extent={"elapsed_seconds": elapsed},
        )
    return _envelope(c, "ok", result=result)


def _write_outputs(outdir: Path, summary, _tables):
    """Write `summary.json`, the one file a run leaves, into `outdir` as one
    line of compact JSON (`_json_text`); returns its path.  `_tables` is
    unused: the benchmark's tamper test wraps this with three arguments."""
    outdir.mkdir(parents=True, exist_ok=True)
    summary_path = outdir / "summary.json"
    summary_path.write_text(_json_text(summary) + "\n")
    return summary_path


def cmd_run(args) -> int:
    cfg_path = Path(args.config)
    try:
        cfg = json.loads(cfg_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    config, problems = parse_config(cfg)
    for p in problems:
        print(f"config error at {p}", file=sys.stderr)
    if problems:
        return EXIT_VALIDATION
    outdir = Path(args.output) if args.output else cfg_path.with_suffix(".out")
    try:
        summary = run_experiment(config)
    except BudgetExceeded as exc:
        summary = _envelope(config, "budget-exceeded", error=str(exc), extent=exc.extent)
    except (ValueError, ToolkitError) as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    path = _write_outputs(outdir, summary, ())
    if summary["status"] == "ok":
        print(path)
        return EXIT_OK
    print(f"budget exceeded; partial summary at {path}", file=sys.stderr)
    return EXIT_BUDGET


def _checks(summary, digest):
    """(label, ok) for every claim of a summary read from a file whose text
    has SHA-256 `digest`; a malformed part fails."""
    config, problems = parse_config(summary.get("config"))
    if problems:
        return [(f"config is valid at {p}", False) for p in problems]

    def matches_file(result):
        # the text `run` writes for this summary holding `result`, top-level and result keys one at a time
        return _sha256(itertools.chain(_json_pieces({**summary, "result": result}, 2), ["\n"])) == digest

    try:
        return VERIFIERS[config.experiment](config, summary.get("result"), matches_file)
    except MALFORMED as exc:
        return [(f"result re-checks ({type(exc).__name__}: {exc})", False)]


def _read_summary(path):
    """The parsed summary and the SHA-256 digest of its text; the text itself
    is dropped before the replay."""
    text = Path(path).read_text()
    digest = _sha256([text])
    return json.loads(text), digest


def cmd_verify(args) -> int:
    try:
        summary, digest = _read_summary(args.summary)
    except (OSError, ValueError) as exc:
        print(f"cannot read summary: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if type(summary) is not dict:
        print("FAIL  summary is a JSON object")
        return EXIT_VALIDATION
    if summary.get("status") != "ok":
        print(f"summary status is {summary.get('status')!r}; nothing to verify", file=sys.stderr)
        return EXIT_VALIDATION
    all_ok = True
    for label, ok in _checks(summary, digest):
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        all_ok &= bool(ok)
    return EXIT_OK if all_ok else EXIT_VALIDATION


def cmd_schema(_args) -> int:
    print(json.dumps(schema(), indent=2, sort_keys=True))
    return EXIT_OK


@functools.cache
def _parser():
    """Built once: an argparse parser is a reference cycle."""
    parser = argparse.ArgumentParser(
        prog="hypactions",
        description="batch experiments on group actions: run, verify, schema",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a config JSON file")
    p_run.add_argument("-o", "--output", help="output directory (default: <config>.out)")
    p_verify = sub.add_parser("verify", help="re-check all witnesses in a summary")
    p_verify.add_argument("summary", help="path to a summary JSON file")
    sub.add_parser("schema", help="print the config schema")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at each call, so that a replaced `cmd_run` is the one that runs
    command = {"run": cmd_run, "verify": cmd_verify, "schema": cmd_schema}[args.command]
    # stdout is held until the command returns, so that a reader closing it
    # early, as `head` does, neither cuts the command short nor changes its
    # exit code
    out = io.StringIO()
    # a library warning, such as a counting word that is a proper power, is
    # one plain line on stderr rather than Python's file, line and source
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        code = command(args)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest of the output is not wanted; stdout points at devnull so
        # that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
