"""Spans and counters around the public calls into each hypactions module.

The wrappers live here, in the benchmark, not in the package: `install`
replaces each traced function on its defining module and on every
hypactions module that imported it by name (for example `hypactions.cli`
holds its own `four_point_delta` and `cone_off`), so nested calls such as
cone_off -> graph_metric_matrix -> Ball.adjacency record child spans.
Element multiplications run too often for one span each; they get a call
counter (and a summed timer for BS products) instead.

Spans are kept in memory as [name, start, end, parent index, run id] and
summarised per run by `layer_metrics`.  A span's self time is its duration
minus the durations of its direct children (calls are single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _n_choose_2(k):
    return k * (k - 1) // 2


# (module, attribute, span name, counters read from the returned object)
SPANS = [
    ("groups", "enumerate_ball", "groups.enumerate_ball",
     lambda r: {"groups.enumerate_ball.elements": len(r)}),
    ("groups", "Ball.adjacency", "groups.adjacency", None),
    ("metrics", "four_point_delta", "metrics.four_point_delta",
     lambda r: {"metrics.four_point_delta.quadruples": r.quadruples_checked}),
    ("metrics", "graph_metric_matrix", "metrics.graph_metric_matrix",
     lambda r: {"metrics.graph_metric_matrix.points": r.shape[0]}),
    ("metrics", "free_ball_distance_matrix", "metrics.free_ball_distance_matrix", None),
    # candidate pairs: unordered pairs of vertices outside the A-neighbourhood
    ("metrics", "cone_off", "metrics.cone_off",
     lambda r: {
         "metrics.cone_off.candidate_pairs": _n_choose_2(len(r.orbit_distance) - len(r.forbidden)),
         "metrics.cone_off.new_edges": len(r.new_edges),
     }),
    ("quasimorphism", "defect_empirical", "quasimorphism.defect_empirical",
     lambda r: {"quasimorphism.defect_empirical.pairs": r.pairs_checked}),
    ("quasimorphism", "anisotropy_certificate", "quasimorphism.anisotropy_certificate", None),
    ("loxodromic", "translation_length_estimate", "loxodromic.translation_length_estimate", None),
    ("loxodromic", "isotropy_probe", "loxodromic.isotropy_probe",
     lambda r: {"loxodromic.isotropy_probe.pairs": r.pairs_checked}),
    ("compression", "compressed_word_length", "compression.compressed_word_length", None),
    ("sl2", "classify", "sl2.classify", None),
    ("sl2", "embedding_spectrum_compare", "sl2.embedding_spectrum_compare", None),
    ("tightspan", "project_to_hull", "tightspan.project_to_hull",
     lambda r: {"tightspan.project_to_hull.iterations": r[1]}),
    ("cli", "run_experiment", "cli.run_experiment", None),
    ("cli", "cmd_run", "cli.run", None),
    ("cli", "cmd_verify", "cli.verify", None),
]

# (module, attribute, counter name, also sum the time spent)
COUNTERS = [
    ("words", "FreeWord.__mul__", "words.mul", False),
    ("words", "count_occurrences", "words.count_occurrences", False),
    ("baumslag", "BSElement.__mul__", "baumslag.mul", True),
    ("sl2", "Mat2.__mul__", "sl2.mul", False),
]


class Tracer:
    """In-memory spans and counters; one run id per benchmark pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self.run_id = 0

    def start_run(self, run_id):
        self.run_id = run_id
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def span_wrapper(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if counters is not None:
                for key, value in counters(result).items():
                    self.counts[key] += value
            return result

        return traced

    def counter_wrapper(self, name, fn, timed):
        calls, total, clock = name + ".calls", name + ".s", time.perf_counter
        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[calls] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[total] += clock() - started
                self.counts[calls] += 1

        return timed_call


def _resolve(module_name, attribute):
    owner = importlib.import_module(f"hypactions.{module_name}")
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _package_modules():
    return [m for key, m in sorted(sys.modules.items()) if key.startswith("hypactions.") and m is not None]


def install(tracer):
    """Wrap every traced call; returns a function that undoes it."""
    patches = []  # (owner, attribute, original)

    def replace(owner, name, wrapper, original):
        patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def wrap(module_name, attribute, wrapper_for):
        owner, name = _resolve(module_name, attribute)
        original = owner.__dict__[name]
        wrapper = wrapper_for(original)
        replace(owner, name, wrapper, original)
        if isinstance(owner, type):
            return
        for module in _package_modules():
            for key, value in vars(module).items():
                if value is original and module is not owner:
                    replace(module, key, wrapper, original)

    for module_name, attribute, name, counters in SPANS:
        wrap(module_name, attribute, lambda fn, n=name, c=counters: tracer.span_wrapper(n, fn, c))
    for module_name, attribute, name, timed in COUNTERS:
        wrap(module_name, attribute, lambda fn, n=name, t=timed: tracer.counter_wrapper(n, fn, t))

    verifiers = importlib.import_module("hypactions.cli").VERIFIERS
    for experiment, fn in list(verifiers.items()):
        patches.append((verifiers, experiment, fn))
        verifiers[experiment] = tracer.span_wrapper(f"cli.verify.{experiment}", fn, None)

    def uninstall():
        for owner, name, original in reversed(patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    return uninstall


def span_times(spans, run_id):
    """Total and self seconds, and call counts, per span name in one run."""
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for name, start, end, parent, run in spans:
        if run != run_id:
            continue
        total[name] += end - start
        own[name] += end - start
        calls[name] += 1
        if parent is not None:
            own[spans[parent][0]] -= end - start
    return total, own, calls


def layer_metrics(tracer, run_id, write_bytes):
    """Every per-layer metric of one traced pass, as name -> (value, unit)."""
    total, own, calls = span_times(tracer.spans, run_id)
    counts, seconds = tracer.counts, tracer.seconds

    def ratio(num, den):
        return num / den if den else 0.0

    quads, quad_s = counts["metrics.four_point_delta.quadruples"], total["metrics.four_point_delta"]
    pairs, new_edges = counts["metrics.cone_off.candidate_pairs"], counts["metrics.cone_off.new_edges"]
    return {
        "groups.enumerate_ball.s": (total["groups.enumerate_ball"], "s"),
        "groups.enumerate_ball.elements": (counts["groups.enumerate_ball.elements"], "count"),
        "groups.adjacency.s": (total["groups.adjacency"], "s"),
        "words.mul.calls": (counts["words.mul.calls"], "count"),
        "words.count_occurrences.calls": (counts["words.count_occurrences.calls"], "count"),
        "baumslag.mul.calls": (counts["baumslag.mul.calls"], "count"),
        "baumslag.mul.s": (seconds["baumslag.mul.s"], "s"),
        "metrics.four_point_delta.s": (quad_s, "s"),
        "metrics.four_point_delta.quadruples": (quads, "count"),
        "metrics.four_point_delta.quadruples_per_s": (ratio(quads, quad_s), "1/s"),
        "metrics.graph_metric_matrix.s": (total["metrics.graph_metric_matrix"], "s"),
        "metrics.graph_metric_matrix.points": (counts["metrics.graph_metric_matrix.points"], "count"),
        "metrics.free_ball_distance_matrix.s": (total["metrics.free_ball_distance_matrix"], "s"),
        "metrics.cone_off.self_s": (own["metrics.cone_off"], "s"),
        "metrics.cone_off.candidate_pairs": (pairs, "count"),
        "metrics.cone_off.new_edges": (new_edges, "count"),
        "metrics.cone_off.edge_yield": (ratio(new_edges, pairs), "ratio"),
        "quasimorphism.defect_empirical.s": (total["quasimorphism.defect_empirical"], "s"),
        "quasimorphism.defect_empirical.pairs": (counts["quasimorphism.defect_empirical.pairs"], "count"),
        "quasimorphism.anisotropy_certificate.self_s": (own["quasimorphism.anisotropy_certificate"], "s"),
        "loxodromic.translation_length_estimate.s": (total["loxodromic.translation_length_estimate"], "s"),
        "loxodromic.isotropy_probe.s": (total["loxodromic.isotropy_probe"], "s"),
        "loxodromic.isotropy_probe.pairs": (counts["loxodromic.isotropy_probe.pairs"], "count"),
        "compression.compressed_word_length.s": (total["compression.compressed_word_length"], "s"),
        "compression.compressed_word_length.calls": (calls["compression.compressed_word_length"], "count"),
        "sl2.mul.calls": (counts["sl2.mul.calls"], "count"),
        "sl2.classify.calls": (calls["sl2.classify"], "count"),
        "sl2.classify.s": (total["sl2.classify"], "s"),
        "sl2.embedding_spectrum_compare.self_s": (own["sl2.embedding_spectrum_compare"], "s"),
        "tightspan.project_to_hull.s": (total["tightspan.project_to_hull"], "s"),
        "tightspan.project_to_hull.iterations": (counts["tightspan.project_to_hull.iterations"], "count"),
        "cli.run_experiment.self_s": (own["cli.run_experiment"], "s"),
        "cli.write.s": (own["cli.run"], "s"),
        "cli.write.bytes": (write_bytes, "bytes"),
        "cli.verify.s": (total["cli.verify"], "s"),
    }

