"""Translation lengths, quasi-axes of free-group elements, the
translation-length compression ratio, and the isotropy probe.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import mul, neg

import numpy as np

from .errors import NotLoxodromic
from .metrics import SCAN_STEP_BYTES
from .words import FreeWord


@dataclass
class TranslationTrace:
    upper: float
    trace: list[float]

    def is_non_increasing(self) -> bool:
        return all(a >= b - 1e-12 for a, b in zip(self.trace, self.trace[1:]))


def translation_length_estimate(g, lengths, horizon: int) -> TranslationTrace:
    """Certified upper bounds l(g^n)/n for n = 1..horizon.

    By subadditivity every ratio bounds the translation length from above and
    the infimum over n converges to it.  `lengths` is any callable from
    elements to numbers, and it is called on g, g^2, ..., g^horizon.
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

    A distance d is drawn uniformly among those held by at least two pairs
    i < j, then two of its pairs in row-major order.  The pair index keeps,
    for each row i and distance d, how many j > i lie at d (`_pair_counts`);
    only the drawn rows are recomputed to find their partners.  All pairs
    are drawn before the scan, which scores every g of the ball against a
    block of pairs at once (`_best_matches`) and keeps the first g of least
    cost.
    """
    rng = random.Random(seed)
    elements = ball.elements
    fwd, inv, length = _letter_arrays([x.signed for x in elements])
    counts = _pair_counts(fwd, length)
    totals = [int(t) for t in counts.sum(axis=0, dtype=float).tolist()]
    eligible = [d for d in range(1, len(totals)) if totals[d] >= 2]
    if sample_size > 0 and not eligible:
        raise ValueError("isotropy probe needs a distance held by two pairs; the ball has none")
    draws = []  # (d, a): the a-th pair at distance d in row-major order
    for _ in range(sample_size):
        d = rng.choice(eligible)
        draws += [(d, a) for a in rng.sample(range(totals[d]), 2)]
    picks = {}  # d: the a drawn at d
    for d, a in draws:
        picks.setdefault(d, []).append(a)
    found = {}  # (d, a): (i, r), the a-th pair at d is the r-th (from 0) of the pairs (i, j) at d
    for d, chosen in picks.items():
        running = memoryview(counts[:, d].cumsum(dtype=float))  # the pairs at d in rows 0..i
        for a in chosen:
            i = bisect_right(running, a)
            found[d, a] = i, a - (running[i - 1] if i else 0)
    drawn = [(found[d, a][0], d, found[d, a][1]) for d, a in draws]
    rows, dist, rank = np.array(drawn, float).reshape(-1, 3).T.copy()
    partners = _partners(fwd, length, rows, dist, rank)
    pairs = np.column_stack([rows, partners]).astype(np.intp).reshape(-1, 4)
    results = []
    successes = 0
    matches = _best_matches(fwd, inv, length, pairs)
    for pair, d, (best, best_c) in zip(pairs.tolist(), dist[::2].tolist(), matches):
        ok = best_c <= D
        successes += ok
        results.append(ProbePairResult(*(elements[i] for i in pair), d, best_c, elements[best], ok))
    hardest = max(results, key=lambda r: r.best_constant, default=None)
    return IsotropyReport(
        pairs_checked=len(results),
        successes=successes,
        failures=[r for r in results if not r.success],
        hardest=hardest,
    )


# The probe computes in float64, exact on these small integers, with float64
# arithmetic, ==, !=, where, copyto, minimum, maximum, min, cumsum and
# indexing only, kernels that any process doing float64 work has loaded.
# Each further kernel (a narrow integer add, a bool sum, an argmin, a < b)
# faults in code pages of numpy's own, which count in the peak RSS.


def _letter_arrays(words):
    """(fwd, inv, length): the reduced words and their inverses as
    n x (w + 1) float letter arrays, w the longest length, each word followed
    by NaN, which differs from everything, NaN included; the final column
    lies past every word, and the columns are contiguous.  `length` holds
    the word lengths."""
    n, w = len(words), max(map(len, words))

    def letters(rows):  # rows[i] has the length of words[i]
        flat = chain.from_iterable(chain(r, repeat(np.nan, w + 1 - len(s))) for r, s in zip(rows, words))
        return np.asfortranarray(np.fromiter(flat, float, n * (w + 1)).reshape(n, w + 1))

    inverses = (map(neg, reversed(s)) for s in words)
    return letters(words), letters(inverses), np.fromiter(map(len, words), float, n)


def _step(width):
    """Rows of `width` floats in a block of about SCAN_STEP_BYTES."""
    return max(1, SCAN_STEP_BYTES // (8 * width))


def _lcp(A, B):
    """len(A) x len(B): the common prefix length of each row of A with each
    row of B, the first column where they differ."""
    out = np.full((len(A), len(B)), A.shape[1] - 1.0)  # the final column differs
    for k in range(A.shape[1] - 2, -1, -1):
        np.copyto(out, float(k), where=A[:, k, None] != B[:, k])
    return out


def _distances(fwd, length, rows, start):
    """d(x_i, x_j) = |x_i| + |x_j| - 2 lcp(x_i, x_j) for i in rows, j >= start."""
    dist = _lcp(fwd[rows], fwd[start:])
    dist *= -2
    dist += length[rows, None]
    dist += length[start:]
    return dist


def _pair_counts(fwd, length):
    """counts[i, d]: the j > i with d(x_i, x_j) = d, for d = 0..2w, in the
    narrowest unsigned type holding n.  That is n x (2w + 1) counts, an
    n x n table only on a rank-1 ball, where n = 2w + 1.  Each block of
    rows, about SCAN_STEP_BYTES of distances to the words from the block on,
    is counted by one `bincount`."""
    n, top = len(fwd), 2 * (fwd.shape[1] - 1)
    bins = top + 2  # the last bin takes the j <= i
    counts = np.empty((n, bins), np.min_scalar_type(n))
    place = np.arange(n, dtype=float)
    step = _step(n)
    for i0 in range(0, n, step):
        i = place[i0 : i0 + step, None]
        key = _distances(fwd, length, slice(i0, i0 + step), i0)
        square = key[:, : len(i)]  # the j <= i lie in it, where min(j - i, 1) != 1
        np.copyto(square, top + 1.0, where=np.minimum(place[i0 : i0 + len(i)] - i, 1.0) != 1.0)
        key += bins * (i - i0)
        counts[i0 : i0 + step] = np.bincount(key.astype(np.intp).ravel(), minlength=bins * len(i)).reshape(-1, bins)
        del key, square  # before the next block's distances
    return counts[:, :-1]


def _partners(fwd, length, rows, dist, rank):
    """For each i of rows: the j > i that is the rank-th (from 0) at its
    distance in dist, recomputing only those rows, a block of about
    SCAN_STEP_BYTES of distances at a time.  Hits are counted over all j,
    so that j is the hit that follows the hits at j <= i by rank + 1, and
    no j <= i needs masking."""
    n = len(fwd)
    place = np.arange(n, dtype=float)
    step = _step(n)
    found = [np.zeros(0)]
    for s0 in range(0, len(rows), step):
        i, e = rows[s0 : s0 + step].astype(np.intp), slice(s0, s0 + step)
        seen = np.where(_distances(fwd, length, i, 0) == dist[e, None], 1.0, 0.0).cumsum(axis=1)
        target = seen[np.arange(len(i)), i] + rank[e] + 1
        found.append(np.where(seen == target[:, None], place, float(n)).min(axis=1))
        del seen  # before the next block's distances
    return np.concatenate(found)


def _best_matches(fwd, inv, length, pairs):
    """For each row (x, y, x', y') of pairs: (first g of least cost, that
    cost), the cost max{d(gx, x'), d(gy, y')} over every g of the ball.

    For a source x and target x' (a side), with c = lcp(g^-1, x) the
    letters that cancel in g.x and h = |g| - c the letters of g left in it,
    gx = g[:h] x[c:].  With p = lcp(g, x'), lcp(gx, x') is p when p < h,
    and h + T[c, h] otherwise, T[c, o] = lcp(x[c:], x'[o:]) built per side.
    Then d(gx, x') = |g| + |x| - 2c + |x'| - 2 lcp(gx, x'), which is
    2(h - lcp(gx, x')) - |g| + |x| + |x'|.  Pairs run in blocks whose
    largest arrays, a row of n floats or a T table per side, take about
    SCAN_STEP_BYTES.
    """
    n, m = fwd.shape
    step = _step(2 * max(n, m * (m + 1)))  # pairs per block
    for q0 in range(0, len(pairs), step):
        yield from _block_matches(fwd, inv, length, pairs[q0 : q0 + step])


def _block_matches(fwd, inv, length, block):
    """`_best_matches` on one block of pairs, whose arrays all go when it
    returns."""
    n, m = fwd.shape
    src = np.concatenate([block[:, 0], block[:, 1]])
    dst = np.concatenate([block[:, 2], block[:, 3]])
    x, target = fwd[src], fwd[dst]
    T = np.zeros((len(src), m, m + 1))
    for a in range(m - 2, -1, -1):  # row m - 1 and column m stay 0: past every word
        T[:, a, :m] = np.where(x[:, a, None] == target, T[:, a + 1, 1:] + 1, 0.0)
    left = _lcp(x, inv)  # c
    np.subtract(length, left, out=left)  # h
    at = left * -m  # the flat index of T[c, h] = c (m + 1) + h, c = |g| - h
    at += length * (m + 1)
    at += np.arange(0, T.size, m * (m + 1), dtype=float)[:, None]
    at = at.astype(np.intp)
    tail = T.ravel()[at]
    del at
    tail += left
    common = _lcp(target, fwd)  # p
    np.minimum(common, left, out=common)
    np.copyto(common, tail, where=common == left)  # p >= h
    del tail
    dist = np.subtract(left, common, out=common)
    dist *= 2
    dist -= length
    dist += (length[src] + length[dst])[:, None]
    cost = np.maximum(dist[: len(block)], dist[len(block) :])
    least = cost.min(axis=1)
    best = np.where(cost == least[:, None], np.arange(n, dtype=float), float(n))
    best = best.min(axis=1)  # the first g of least cost
    return zip(best.astype(np.intp).tolist(), least.tolist())
