"""The four benchmark workloads: fixed batches of experiment configs, and the
checks every summary they produce must pass.

Each workload stresses different layers (see WORKLOADS.md for why each was
chosen and which layer metrics should move its end-to-end numbers).  The
seed goes only into each config's `seed` field, which drives sampled delta,
the isotropy pairs and the tightspan metrics; work sizes (balls, exhaustive
quadruples, defect pairs, probe pairs) do not depend on it.

A check is a (label, predicate on the summary's `result`) pair.  Only facts
that hold for any correct implementation are checked: ball sizes, exact
zeros of 0-hyperbolic groups, certificate values fixed by the mathematics,
and work sizes fixed by the config.  Values a planned change may alter on
purpose (the BS delta values, the summary `metric` label) are not pinned.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

F2 = {"kind": "free", "rank": 2}
BS23 = {"kind": "bs", "m": 2, "n": 3}
BS12 = {"kind": "bs", "m": 1, "n": 2}
# exhaustive delta on 161 points scans 161^4 quadruples, above the 2e8
# default cap
BIG_SCAN = {"quadruple_cap": 10**9}


def config(group, experiment, parameters, seed, budgets=None):
    cfg = {
        "format": 1,
        "group": group,
        "experiment": experiment,
        "parameters": parameters,
        "seed": seed,
    }
    if budgets:
        cfg["budgets"] = budgets
    return cfg


def ball_size(n):
    return (f"ball size {n}", lambda r: r["ball_size"] == n)


def raw_max_zero():
    return ("free group raw_max is 0", lambda r: r["delta"]["raw_max"] == 0.0)


def quadruples(n):
    return (f"{n} quadruples checked", lambda r: r["delta"]["quadruples_checked"] == n)


def orbit_size(n):
    return (f"orbit size {n}", lambda r: r["orbit_size"] == n)


def certificate(value, rows=None, M=None):
    checks = [(f"homogenized value {value}", lambda r: r["certificate"]["homogenized_value"] == value)]
    if rows is not None:
        checks.append((f"{rows} subordination rows (ball size)", lambda r: len(r["certificate"]["rows"]) == rows))
    if M is not None:
        checks.append((f"M = {M}", lambda r: r["certificate"]["subordination_M"] == M))
    return checks


def _delta(seed):
    sampled = {"mode": "sampled", "count": 2_000_000}
    return [
        ("delta-f2-r4", config(F2, "delta", {"radius": 4}, seed, BIG_SCAN),
         [ball_size(161), raw_max_zero(), quadruples(161**4)]),
        ("delta-bs12-r4", config(BS12, "delta", {"radius": 4}, seed),
         [ball_size(93), quadruples(93**4)]),
        ("delta-bs23-r4-sampled", config(BS23, "delta", {"radius": 4, **sampled}, seed),
         [ball_size(147), quadruples(2_000_000)]),
        ("delta-bs23-r5-sampled", config(BS23, "delta", {"radius": 5, **sampled}, seed),
         [ball_size(389), quadruples(2_000_000)]),
        ("delta-f2-r5-sampled", config(F2, "delta", {"radius": 5, **sampled}, seed),
         [ball_size(485), raw_max_zero(), quadruples(2_000_000)]),
    ]


def _cone_off(seed):
    return [
        ("cone-bs23-r5-t-A0", config(BS23, "cone-off", {"radius": 5, "orbit": "t", "A": 0}, seed),
         [orbit_size(11)]),
        ("cone-bs23-r5-a-A1", config(BS23, "cone-off", {"radius": 5, "orbit": "a", "A": 1}, seed),
         [orbit_size(11)]),
        ("cone-bs12-r5-at-A1", config(BS12, "cone-off", {"radius": 5, "orbit": "at", "A": 1}, seed),
         []),
        ("cone-f2-r4-a-A1", config(F2, "cone-off", {"radius": 4, "orbit": "a", "A": 1}, seed),
         [orbit_size(9)]),
    ]


def _certify(seed):
    return [
        ("qm-bs23-r5-t", config(BS23, "qm-certify", {"g": "t", "radius": 5}, seed),
         certificate(1.0, rows=389, M=1)),
        ("qm-bs12-r5-t", config(BS12, "qm-certify", {"g": "t", "radius": 5}, seed),
         certificate(1.0, M=1)),
        ("qm-f2-r4-brooks-ab", config(F2, "qm-certify", {"g": "ab", "radius": 4, "qm": {"brooks": "ab"}}, seed),
         certificate(1.0, rows=161)),
        ("tau-bs23-at", config(BS23, "tau", {"g": "at", "horizon": 200}, seed),
         [("trace has 200 ratios", lambda r: len(r["trace"]) == 200)]),
        ("isotropy-f2-r4", config(F2, "isotropy-probe", {"radius": 4, "D": 2, "pairs": 40}, seed),
         [("40 pairs checked", lambda r: r["pairs_checked"] == 40)]),
    ]


def _exact(seed):
    families = [{"w": "ab^3", "cap": 2}, {"w": "ab^9", "cap": 3}]
    return [
        ("sl2-d2-r4", config({"kind": "sl2", "field": {"d": 2}}, "sl2-embed", {"x": "sqrt2-1", "radius": 4}, seed), []),
        ("sl2-d3-r4", config({"kind": "sl2", "field": {"d": 3}}, "sl2-embed", {"x": "sqrt3-1", "radius": 4}, seed), []),
        ("compress-k80", config(F2, "compress", {"families": families, "k_max": 80}, seed),
         [("all upper bounds hold", lambda r: r["all_upper_ok"] is True),
          ("160 length reports", lambda r: len(r["reports"]) == 160)]),
        ("tightspan-p6", config(F2, "tightspan", {"points": 6, "trials": 30, "proj_trials": 30}, seed),
         [("Kuratowski count equals trials", lambda r: r["kuratowski_exact_isometric"] == r["trials"] == 30)]),
        ("tightspan-p8", config(F2, "tightspan", {"points": 8, "trials": 20, "proj_trials": 20}, seed),
         [("Kuratowski count equals trials", lambda r: r["kuratowski_exact_isometric"] == r["trials"] == 20)]),
        ("borel-order", config(F2, "borel-order", {"r": [1, 2, 3], "s": [1, 1, 1], "families": ["ab", "ab^2", "a^2b"], "N": [1, 1, 1]}, seed),
         [("no order violations", lambda r: r["violations"] == [])]),
    ]


WORKLOADS = {"delta": _delta, "cone-off": _cone_off, "certify": _certify, "exact": _exact}


def batch(workload, seed):
    """The workload's (name, config, checks) entries for one seed."""
    return WORKLOADS[workload](seed)


def setup(workload, seed, workdir):
    """Import the package, generate the workload's configs and write them.

    Returns (entries, seconds) where entries are (name, config path, checks).
    The timed span is the user's cost before the first experiment runs.
    """
    started = time.perf_counter()
    import numpy  # noqa: F401
    import hypactions.cli  # noqa: F401

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, cfg, checks in batch(workload, seed):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        entries.append((name, path, checks))
    return entries, time.perf_counter() - started
