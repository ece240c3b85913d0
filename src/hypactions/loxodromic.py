"""Translation lengths, quasi-axes of free-group elements, the
translation-length compression ratio, and the isotropy probe.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import mul

from .errors import NotLoxodromic
from .words import FreeWord, _concat


@dataclass
class TranslationTrace:
    upper: float
    trace: list[float]

    def is_non_increasing(self) -> bool:
        return all(a >= b - 1e-12 for a, b in zip(self.trace, self.trace[1:]))


def translation_length_estimate(g, lengths, horizon: int) -> TranslationTrace:
    """Certified upper bounds l(g^n)/n for n = 1..horizon.

    By subadditivity every ratio bounds the translation length from above and
    the infimum over n converges to it.  `lengths` is a PseudoLength (raising
    DomainMiss outside its ball) or any callable on elements.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    powers = accumulate(repeat(g, horizon), mul)
    trace = [lengths(p) / n for n, p in enumerate(powers, start=1)]
    return TranslationTrace(upper=min(trace), trace=trace)


def tree_length(g) -> int:
    """d(x, gx), x the base vertex of g's tree: the word length on F_k, the
    t-letter count of the Britton normal form on BS(m, n) (Britton's lemma)."""
    return len(g) if isinstance(g, FreeWord) else g.t_syllable_count()


def translation_length_exact(g) -> int:
    """l(g) = max(0, |g^2| - |g|) on g's tree, |.| the `tree_length` (Culler
    and Morgan, "Group actions on R-trees", Proc. LMS 1987, section 1).

    Proof: both actions are without inversions, so g fixes a subtree F or
    has an axis A.  If it fixes F, then d(x, gx) = 2d(x, F) >= d(x, g^2 x),
    as g^2 fixes F, and l(g) = 0.  Otherwise d(x, g^k x) = k l(g) + 2d(x, A)
    for k >= 1.  On F_k, l(g) is the length of the cyclically reduced core.
    """
    return max(0, tree_length(g * g) - tree_length(g))


# ---------------------------------------------------------------------------
# quasi-axes


@dataclass
class QuasiAxis:
    """The bi-infinite path ... g^-1 gamma, gamma, g gamma ... over a window,
    gamma the geodesic from the identity to g.

    vertices[i] = (parameter, element); consecutive translates share their
    endpoint vertices, so parameters run in steps of 1 along the path.
    """

    vertices: list = field(default_factory=list)

    def points(self):
        return [v for _, v in self.vertices]


def build_quasi_axis(g: FreeWord, window: int) -> QuasiAxis:
    """Materialize the standard quasi-axis of g, labeled by its reduced word,
    the unique geodesic label in a free group."""
    if window < 0:
        raise ValueError("window must be >= 0")
    prefixes = [FreeWord(g.signed[:i]) for i in range(len(g))]
    axis = QuasiAxis()
    segment_len = max(len(prefixes), 1)
    # the materialized path runs from g^-window s to g^window s (window >= 1);
    # window 0 is just the base segment from s to gs
    last_k = max(window - 1, 0)
    power = g ** -window
    for k in range(-window, last_k + 1):
        for i, p in enumerate(prefixes):
            axis.vertices.append((k * segment_len + i, power * p))
        power = power * g
    axis.vertices.append(((last_k + 1) * segment_len, power))
    return axis


# ---------------------------------------------------------------------------
# compression ratio


@dataclass
class CompressionValue:
    ratio: float


def compression_function(g, lengths_compressed, lengths_reference, horizon: int) -> CompressionValue:
    """Ratio of horizon translation-length estimates: compressed over reference."""
    num = translation_length_estimate(g, lengths_compressed, horizon)
    den = translation_length_estimate(g, lengths_reference, horizon)
    if den.upper <= 1e-12:
        raise NotLoxodromic(
            "not-loxodromic-downstairs: reference translation length estimate is 0"
        )
    return CompressionValue(ratio=num.upper / den.upper)


# ---------------------------------------------------------------------------
# isotropy probe


@dataclass
class ProbePairResult:
    x: object
    y: object
    x2: object
    y2: object
    distance: float
    best_constant: float
    best_g: object
    success: bool


@dataclass
class IsotropyReport:
    pairs_checked: int
    successes: int
    failures: list
    hardest: ProbePairResult | None

    @property
    def success_rate(self) -> float:
        return self.successes / self.pairs_checked if self.pairs_checked else 1.0


def isotropy_probe(ball, D: float, sample_size: int, seed: int = 0) -> IsotropyReport:
    """Sample equidistant point pairs in the ball and look for g matching them.

    For each sampled ((x, y), (x', y')) with d(x, y) = d(x', y') (exact
    integer equality, d the free-group word metric), scan g in the ball for
    max{d(gx, x'), d(gy, y')} <= D.
    A failing pair is finite-scale evidence against isotropy with constant D.
    """
    rng = random.Random(seed)
    elements = ball.elements
    words = [x.signed for x in elements]
    rows = _distance_rows(words)
    running = {}  # d -> number of pairs i < j at distance d in rows 0..i, for each i
    for d in range(1, 2 * max(map(len, words)) + 1):
        counts = list(accumulate(row.count(chr(d)) for row in rows))
        if counts[-1] >= 2:
            running[d] = counts
    if sample_size > 0 and not running:
        raise ValueError("isotropy probe needs a distance held by two pairs; the ball has none")
    eligible = sorted(running)
    results = []
    successes = 0
    for _ in range(sample_size):
        d = rng.choice(eligible)
        counts, pair = running[d], []
        for a in rng.sample(range(counts[-1]), 2):  # the a-th pair in row-major order
            i, pos = bisect_right(counts, a), -1
            for _ in range(a - (counts[i - 1] if i else 0) + 1):
                pos = rows[i].find(chr(d), pos + 1)
            pair += [i, i + 1 + pos]
        x, y, x2, y2 = (words[i] for i in pair)
        best_c, best = float("inf"), None
        for k, g in enumerate(words):
            c = _moved_distance(g, x, x2)
            if c < best_c:
                c = max(c, _moved_distance(g, y, y2))
                if c < best_c:
                    best_c, best = c, k
                    if c == 0:
                        break
        ok = best_c <= D
        successes += ok
        results.append(
            ProbePairResult(*(elements[i] for i in pair), float(d), float(best_c), elements[best], ok)
        )
    hardest = max(results, key=lambda r: r.best_constant, default=None)
    return IsotropyReport(
        pairs_checked=len(results),
        successes=successes,
        failures=[r for r in results if not r.success],
        hardest=hardest,
    )


def _distance_rows(words):
    """Row i: chr(d(x_i, x_j)) for each j > i, as one str (a byte a pair
    below distance 256, and no limit above).

    The words split into runs of one length l in increasing order (the
    sorted BFS layers of a free ball).  In a run, the words starting with
    x_i[:k] form a span found by bisection, and those sharing exactly k
    letters with x_i lie at distance |x_i| + l - 2k, so each deeper span
    overwrites its part of the run's row, down to a span of one word.
    """
    cuts = [j for j in range(1, len(words)) if len(words[j]) != len(words[j - 1]) or words[j] <= words[j - 1]]
    rows = []
    for i, x in enumerate(words):
        row = []
        for s, e in zip([0, *cuts], [*cuts, len(words)]):
            if e > i + 1:
                lo, hi, top = s, e, len(x) + len(words[s])
                run = [chr(top)] * (e - s)
                for k in range(1, min(len(x), len(words[s])) + 1):
                    if hi - lo < 2:  # at most one word left: its own distance
                        run[lo - s : hi - s] = [chr(_moved_distance((), x, w)) for w in words[lo:hi]]
                        break
                    lo = bisect_left(words, x[:k], lo, hi)
                    hi = bisect_left(words, x[:k] + (float("inf"),), lo, hi)
                    run[lo - s : hi - s] = chr(top - 2 * k) * (hi - lo)
                row += run[max(0, i + 1 - s) :]
        rows.append("".join(row))
    return rows


def _moved_distance(g, x, y) -> int:
    """d(gx, y) on reduced letter tuples."""
    gx, k = _concat(g, x), 0
    while k < len(gx) and k < len(y) and gx[k] == y[k]:
        k += 1
    return len(gx) + len(y) - 2 * k
