"""Pseudo-lengths, finite metric spaces, the four-point hyperbolicity
estimator, and the cone-off construction.

Distances are 64-bit floats (exact integers for word metrics); the only
tolerance in this module is the absolute 1e-12 used when comparing against
zero.  Every graph metric here (the in-ball metric, the word metric of a
free-group ball, an induced subgraph's metric, and both metrics that cone-off
compares) comes from one all-pairs BFS, `_bfs_metric`, over a table of
neighbour indices such as the one a Cayley ball keeps (`Ball.adjacency`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DomainMiss

ZERO_TOL = 1e-12


# ---------------------------------------------------------------------------
# pseudo-lengths


class PseudoLength:
    """A non-negative length function materialized on a finite domain."""

    def __init__(self, values: dict):
        self.values = dict(values)

    @property
    def domain(self):
        return self.values.keys()

    def __contains__(self, g):
        return g in self.values

    def __call__(self, g) -> float:
        try:
            return self.values[g]
        except KeyError:
            raise DomainMiss(g) from None

    def __len__(self):
        return len(self.values)

    @classmethod
    def from_word_lengths(cls, ball) -> "PseudoLength":
        return cls({g: float(r) for g, r in ball.length.items()})


# ---------------------------------------------------------------------------
# finite metric spaces


class FiniteMetricSpace:
    """A symmetric matrix of non-negative distances with zero diagonal.

    Entries may be ints, Fractions, or floats; `as_array` converts to float64
    for the vectorized scans.
    """

    def __init__(self, rows, validate: bool = True):
        self.rows = [list(r) for r in rows]
        self.size = len(self.rows)
        if any(len(r) != self.size for r in self.rows):
            raise ValueError("distance matrix must be square")
        if validate:
            self.validate()

    def validate(self):
        """Exact symmetry and an exactly zero diagonal, as `four_point_delta`
        requires; negative distances and triangle violations up to ZERO_TOL."""
        n = self.size
        for i in range(n):
            if self.rows[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {i}")
            for j in range(i + 1, n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError(f"asymmetry at ({i},{j})")
                if self.rows[i][j] < -ZERO_TOL:
                    raise ValueError(f"negative distance at ({i},{j})")
        D = self.as_array()
        for k in range(n):
            slack = D - (D[:, k][:, None] + D[k, :][None, :])
            if slack.max() > ZERO_TOL:
                i, j = np.unravel_index(np.argmax(slack), slack.shape)
                raise ValueError(f"triangle inequality fails for ({i},{j},{k})")

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.float64)


def free_ball_distance_matrix(ball) -> np.ndarray:
    """The in-ball graph metric of a free-group ball, by the ball's own
    generators.

    On a ball of the standard generators it is the word metric
    |u| + |v| - 2 lcp(u, v): a ball of a tree is convex, since the geodesic
    from u to v runs from u up to their common prefix and down to v, through
    words no longer than u or v.  By other generators it is not: on the
    radius-2 ball of F2 by {a, b, ab}, 672 of the 961 pairs differ from
    |u| + |v| - 2 lcp(u, v).  `delta` builds standard balls only.
    """
    return graph_metric_matrix(ball)


def _bfs_metric(table: np.ndarray) -> np.ndarray:
    """All-pairs BFS distances of the graph whose row i of `table` lists the
    out-neighbours of vertex i, padded with -1; entry [i, j] is the length of
    a shortest path from i to j, inf when there is none.

    Every source advances together, one bit per source: row v of the
    n x ceil(n/8) uint8 frontier marks the sources at the current distance
    from v.  A level ORs, for each column c, the frontier rows of the
    neighbours table[v, c] into row v (padding reads an all-zero extra row)
    and drops the pairs reached before.  A pair's distance is the number of
    levels, the zeroth included, after which it is still unreached; it is
    counted in the narrowest unsigned type that holds n and copied into the
    float64 result, allocated before the levels, once at the end.
    """
    n = table.shape[0]
    out = np.empty((n, n))
    nbrs = np.where(table < 0, n, table).T  # one row of neighbour indices per column
    sources = np.arange(n)
    frontier = np.zeros((n + 1, (n + 7) // 8), dtype=np.uint8)
    frontier[sources, sources >> 3] = 1 << (sources & 7)
    reached = frontier[:n].copy()
    nxt, gathered = np.empty_like(reached), np.empty_like(reached)
    unreached = ~np.eye(n, dtype=bool)
    dist = unreached.astype(np.min_scalar_type(n))
    while True:
        nxt.fill(0)
        for col in nbrs:
            np.take(frontier, col, axis=0, out=gathered)
            nxt |= gathered
        nxt &= ~reached
        if not nxt.any():
            break
        reached |= nxt
        frontier[:n] = nxt
        unreached = np.unpackbits(~reached, axis=1, count=n, bitorder="little")
        dist += unreached
    np.copyto(out, dist)
    np.copyto(out, np.inf, where=unreached.view(bool))
    return out


def graph_metric_matrix(ball) -> np.ndarray:
    """All-pairs in-ball graph metric: shortest paths in the Cayley graph
    restricted to the ball's vertices, by the bit-parallel BFS of
    `_bfs_metric` over the ball's neighbour table.

    This is the word metric only where geodesics stay inside the ball; pairs
    at distance >= radius may be farther apart in the ball than in the group.
    """
    return _bfs_metric(ball.adjacency())


# ---------------------------------------------------------------------------
# Gromov products and the four-point estimator


def gromov_product(dist, x, y, z) -> float:
    """(x, y)_z = (d(x,z) + d(y,z) - d(x,y)) / 2 for a distance callable."""
    return (dist(x, z) + dist(y, z) - dist(x, y)) / 2.0


@dataclass
class DeltaEstimate:
    """Worst four-point defect min{(x,y)_t, (y,z)_t} - (x,z)_t over a scan."""

    delta: float
    raw_max: float
    witness: tuple[int, int, int, int]
    sampled: bool
    quadruples_checked: int
    seed: int | None = None
    labels: list | None = None

    def witness_labels(self):
        if self.labels is None:
            return list(self.witness)
        return [self.labels[i] for i in self.witness]

    def to_json(self):
        return {
            "delta": self.delta,
            "raw_max": self.raw_max,
            "witness": list(self.witness),
            "witness_labels": self.witness_labels(),
            "sampled": self.sampled,
            "quadruples_checked": self.quadruples_checked,
            "seed": self.seed,
        }


def quadruple_defect(D: np.ndarray, quad):
    """The defect min{(x,y)_t, (y,z)_t} - (x,z)_t of the ordered quadruple
    (x, y, z, t), from Gromov products in float64: the witness checker that
    `verify` replays a stored witness through."""
    i, j, k, l = quad
    gp = lambda a, b: (D[a, l] + D[b, l] - D[a, b]) / 2.0
    return np.minimum(gp(i, j), gp(j, k)) - gp(i, k)


SCAN_STEP_BYTES = 1 << 17  # bytes per array in one step of either scan, sized to stay in cache


def _scan_dtype(D: np.ndarray):
    """The narrowest integer type holding every sum the scan forms (|value|
    <= 4 max|d|) when the distances are integers, else float64."""
    if np.array_equal(D, np.round(D)):
        span = 4 * float(np.abs(D).max())
        for dtype in (np.int8, np.int16, np.int32):
            if span <= np.iinfo(dtype).max:
                return dtype
    return np.float64


def _defect_blocks(D: np.ndarray):
    """Twice the worst defect of every unordered quadruple, in blocks of about
    SCAN_STEP_BYTES per array.

    Yields (block, offsets): the block's axis k runs over points offsets[k],
    offsets[k] + 1, ..., so the points of the quadruple at a block position
    are its coordinates plus the offsets.

    With A = d(x,y) + d(z,t), B = d(y,z) + d(x,t) and C = d(x,z) + d(y,t),
    the defect of the ordered quadruple (x, y, z, t) is (C - max(A, B))/2.
    Its maximum over the orderings of {x, y, z, t}, with any of the four
    points as the basepoint t, is (largest - middle)/2 of the three sums.
    Distinct points x < y < z < t go one step per y: x < y against a block
    of pairs z, t > y, every operand a slice or a broadcast of D.  A block
    also holds some pairs with t <= z; those are the quadruple {x, y, t, z}
    again, or {x, y, z, z}, whose value is just as real.  A quadruple with
    a repeated point {a, a, b, c} has sums d(b, c) and twice d(a, b) +
    d(a, c), so it is worth max(0, d(b, c) - d(a, b) - d(a, c))/2; the max
    with 0 is the quadruple (0, 0, 0, 0), which the caller starts from.
    """
    n = D.shape[0]
    step = SCAN_STEP_BYTES // D.itemsize
    rows = max(1, step // (n * n))
    for a in range(0, n, rows):
        yield D[None] - D[a : a + rows, :, None] - D[a : a + rows, None, :], (a, 0, 0)
    for y in range(1, n - 2):
        rest = n - y - 1  # points after y
        dxy = D[:y, y, None, None]
        dy = D[y, y + 1 :]
        dx = D[:y, y + 1 :]
        after = D[y + 1 :, y + 1 :]
        width = max(1, min(rest - 1, step // (y * rest)))
        for z0 in range(0, rest - 1, width):
            z, t = slice(z0, min(z0 + width, rest - 1)), slice(z0 + 1, rest)
            A = dxy + after[z, t]
            B = dy[z, None] + dx[:, None, t]
            C = dx[:, z, None] + dy[t]
            hi, lo = np.maximum(A, B), np.minimum(A, B)
            np.minimum(hi, C, out=A)
            np.maximum(lo, A, out=lo)  # the middle sum
            np.maximum(hi, C, out=hi)  # the largest sum
            hi -= lo
            yield hi, (0, y + 1 + z0, y + 2 + z0)


def _first_worst_point(D: np.ndarray) -> int:
    """The smallest point of any quadruple, repeated points allowed, whose
    worst defect is the largest over all quadruples."""
    D = D.astype(_scan_dtype(D))
    best, low = 0, 0  # the quadruple (0, 0, 0, 0)
    for block, offsets in _defect_blocks(D):
        m = block.max()
        if m > best or (m == best and low > 0):
            first = min(o + int(at.min()) for o, at in zip(offsets, np.nonzero(block == m)))
            low = first if m > best else min(low, first)
            best = m
    return low


def _basepoint_blocks(D: np.ndarray, l: int):
    """The ordered defects with basepoint t = l, built from the n x n Gromov
    products at l a few rows of x at a time: yields (i0, T), where T[i, j, k]
    is the defect of (i0 + i, j, k, l)."""
    n = D.shape[0]
    col = D[:, l]
    G = (col[:, None] + col[None, :] - D) / 2.0
    rows = max(1, SCAN_STEP_BYTES // G.itemsize // (n * n))
    for i0 in range(0, n, rows):
        yield i0, np.minimum(G[i0 : i0 + rows, :, None], G[None, :, :]) - G[i0 : i0 + rows, None, :]


def basepoint_scan(D: np.ndarray, l: int):
    """(max, first maximising (x, y, z, l) in row-major order) of the ordered
    defects with basepoint t = l."""
    best, witness = -math.inf, None
    for i0, T in _basepoint_blocks(D, l):
        m = float(T.max())
        if m > best:
            i, j, k = np.unravel_index(int(np.argmax(T)), T.shape)
            best, witness = m, (i0 + int(i), int(j), int(k), l)
    return best, witness


def _zero_at_basepoint_0(D: np.ndarray) -> bool:
    """Whether no defect with basepoint 0 is positive, stopping at the first
    block that holds one.

    Then every defect is at most 0, by the bound delta <= 2 delta_w for any
    basepoint w (Fournier, Ismail and Vigneron, IPL 2015), which needs no
    triangle inequality.  With K(a, b) = (a.b)_w, the identity

        (x.y)_t = (x.y)_w + d(t, w) - (x.t)_w - (y.t)_w

    holds for every symmetric D with zero diagonal, so the defect of
    (x, y, z, t) is min(K(x,y) + K(z,t), K(y,z) + K(x,t)) - K(x,z) - K(y,t).
    The scan at w says K(a,b) >= min(K(a,c), K(c,b)) - delta_w for all a, b
    and c, repeats included; applied to (x, z) through y and t and to (y, t)
    through x and z, it bounds that defect by 2 delta_w.
    """
    return all(T.max() <= 0 for _, T in _basepoint_blocks(D, 0))


def _index_dtype(entries: int):
    """int32 when every flat index below `entries` fits in it, else int64."""
    return np.int32 if entries <= 2**31 else np.int64


def _sampled_scan(D: np.ndarray, count: int, rng):
    """(max, first maximising quadruple drawn) of `count` drawn defects."""
    n = D.shape[0]
    flat = D.astype(_scan_dtype(D)).ravel()
    index = _index_dtype(flat.size)  # numpy draws the same stream in either type
    step = SCAN_STEP_BYTES // np.dtype(index).itemsize  # indices in one cache-sized block
    best, witness = -math.inf, None
    remaining = count
    while remaining > 0:
        m_now = min(250_000, remaining)
        remaining -= m_now
        idx = rng.integers(0, n, size=(4, m_now), dtype=index)
        for s in range(0, m_now, step):
            x, y, z, t = idx[:, s : s + step]
            xn, yn = x * n, y * n
            A = flat.take(xn + y)
            A += flat.take(z * n + t)
            B = flat.take(yn + z)
            B += flat.take(xn + t)
            C = flat.take(xn + z)
            C += flat.take(yn + t)
            np.maximum(A, B, out=A)
            C -= A
            m = C.max()
            if m > best:
                best = m
                witness = tuple(int(v) for v in idx[:, s + int(C.argmax())])
    return float(best) / 2, witness


def quadruple_budget(n: int, mode: str, count: int | None, quadruple_cap: int) -> int:
    """The ordered quadruples a `four_point_delta` scan of n points covers:
    n^4 in mode "exhaustive", `count` in mode "sampled".  Raises ValueError
    for an unknown mode or a sampled count below 1, and BudgetExceeded when
    the total is over `quadruple_cap`, so a caller can check the cap before
    it builds the distance matrix."""
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and (count is None or count < 1):
        raise ValueError("sampled mode needs count >= 1")
    total = count if mode == "sampled" else n**4
    if total > quadruple_cap:
        raise BudgetExceeded(
            f"{total} ordered quadruples exceed cap {quadruple_cap}",
            extent={"points": n},
        )
    return total


def four_point_delta(
    metric,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
    quadruple_cap: int = 200_000_000,
    labels=None,
) -> DeltaEstimate:
    """The worst four-point defect over ordered quadruples, clamped at 0.

    metric: FiniteMetricSpace or a square numpy array, which must be finite,
    symmetric and zero on the diagonal (ValueError otherwise); negative
    entries and triangle violations are scanned as they are.
    mode "exhaustive" covers all n^4 ordered quadruples; `quadruple_cap` and
    `quadruples_checked` count them, so the cap is crossed above n^4.  On
    distances `_scan_dtype` scans as integers, whose defects are exact in
    float64, it first scans the n^3 ordered defects with basepoint 0,
    stopping at the first positive one: when there is none, delta <= 2 delta_0
    = 0 (see `_zero_at_basepoint_0`), so `raw_max` is 0 with witness
    (0, 0, 0, 0), as the scans below would find, and they are skipped.  That
    settles every tree, a free-group ball among them.  Otherwise it evaluates
    each unordered quadruple once, as (largest - middle)/2 of its three
    matching sums (see `_defect_blocks`), about n^4/24 evaluations in O(n^2)
    memory.  Integer distances are scanned exactly in a narrow integer type.
    The first point l of a maximising quadruple then reruns the ordered scan
    with basepoint l, whose maximum is `raw_max` and whose first argmax is
    `witness`: the first basepoint, and the first (x, y, z) at it, that reach
    the maximum, as a scan over every basepoint in turn finds them (exactly
    so when sums of two distances are exact in float64).
    mode "sampled" scans, in the same types, `count` <= `quadruple_cap`
    quadruples drawn from a PRNG seeded with `seed` (0 when None), with int32
    indices while n^2 <= 2^31 (int64 past that; both draw the same stream).
    """
    D = metric.as_array() if isinstance(metric, FiniteMetricSpace) else np.asarray(metric, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    n = D.shape[0]
    if n < 1:
        raise ValueError("need at least one point")
    if not np.isfinite(D).all():
        raise ValueError("distances must be finite")
    if not np.array_equal(D, D.T):
        raise ValueError("distance matrix must be symmetric")
    if np.diagonal(D).any():
        raise ValueError("distance matrix must be zero on the diagonal")
    total = quadruple_budget(n, mode, count, quadruple_cap)
    sampled = mode == "sampled"
    if sampled:
        seed = 0 if seed is None else seed
        best, best_w = _sampled_scan(D, count, np.random.default_rng(seed))
    elif _scan_dtype(D) is not np.float64 and _zero_at_basepoint_0(D):
        best, best_w = 0.0, (0, 0, 0, 0)  # what the scan below returns when every defect is at most 0
    else:
        best, best_w = basepoint_scan(D, _first_worst_point(D))
    return DeltaEstimate(
        delta=max(0.0, best),
        raw_max=best,
        witness=best_w,
        sampled=sampled,
        quadruples_checked=total,
        seed=seed if sampled else None,
        labels=list(labels) if labels is not None else None,
    )


# ---------------------------------------------------------------------------
# cone-off


@dataclass
class ConeOffResult:
    new_edges: list[tuple[int, int]]
    forbidden: list[int]  # indices inside the closed A-neighborhood of the orbit
    warnings: list[str]
    orbit_distance: list[float]


def set_distance(D: np.ndarray, idx) -> np.ndarray:
    """Distance from every point to the point set `idx` (inf when it is empty)."""
    idx = list(idx)
    if not idx:
        return np.full(D.shape[0], np.inf)
    return D[idx].min(axis=0)


def induced_metric(A: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Graph metric of the subgraph induced on the vertices where `keep` is
    true, from the 0/1 adjacency matrix A (A[i, j] is an edge from i to j);
    inf when an endpoint is outside.  The kept block becomes a neighbour
    table for `_bfs_metric`."""
    idx = np.flatnonzero(keep)
    inside = np.ix_(idx, idx)
    rows, cols = np.nonzero(A[inside])
    slot = np.arange(len(rows)) - np.searchsorted(rows, rows)  # rows are sorted: rank within the row
    table = np.full((len(idx), slot.max(initial=-1) + 1), -1, dtype=np.int32)
    table[rows, slot] = cols
    D = np.full(A.shape, np.inf)
    D[inside] = _bfs_metric(table)
    return D


def boundary_warnings(D0: np.ndarray, radius: int) -> list[str]:
    """The cone-off warning for pairs whose in-ball geodesics may exit the ball."""
    boundary_pairs = int(np.sum(np.triu(D0 >= radius, 1)))
    if not boundary_pairs:
        return []
    return [f"{boundary_pairs} vertex pairs have in-ball distance >= radius {radius}; "
            "their geodesics may exit the ball"]


def cone_off(ball, orbit, A: float) -> ConeOffResult:
    """The edges that coning off adds: pairs of ball vertices joined by a
    geodesic that avoids the closed A-neighborhood of the orbit.

    All distances are in the in-ball graph metric.  Some geodesic from x to y
    avoids the neighborhood exactly when their distance in the subgraph
    induced on the vertices outside it equals their distance in the whole
    ball, so every pair is decided by comparing two BFS metrics, both run on
    the ball's neighbour table.  Pairs at distance >= 2 that pass the test
    become edges, in row-major order.
    """
    if A < 0:
        raise ValueError("A must be >= 0")
    orbit_idx = []
    for g in orbit:
        if g not in ball.index:
            raise ValueError(f"orbit element {ball.oracle.format_element(g)} outside the ball")
        orbit_idx.append(ball.index[g])
    table = ball.adjacency()
    D0 = graph_metric_matrix(ball)
    orbit_dist = set_distance(D0, orbit_idx)
    allowed = orbit_dist > A + ZERO_TOL
    warnings = boundary_warnings(D0, ball.radius)

    # Edge ends lie outside the neighborhood, so both metrics are compared on that
    # block alone; `keep` is increasing, so its row-major order is the ball's.
    # The block's table relabels the kept rows 0, 1, ...; `relabel[-1]` is -1,
    # so a neighbour outside the block or the ball becomes padding.
    keep = np.flatnonzero(allowed)
    relabel = np.full(len(ball) + 1, -1, dtype=np.int32)
    relabel[keep] = np.arange(len(keep))
    D0 = D0[np.ix_(keep, keep)]
    D_allowed = _bfs_metric(relabel[table[keep]])
    avoids = np.isfinite(D0) & (D0 >= 2) & (D_allowed == D0)
    xs, ys = np.nonzero(np.triu(avoids, 1))
    return ConeOffResult(
        new_edges=list(zip(keep[xs].tolist(), keep[ys].tolist())),
        forbidden=np.flatnonzero(~allowed).tolist(),
        warnings=warnings,
        orbit_distance=orbit_dist.tolist(),
    )


# ---------------------------------------------------------------------------
# random metric generators for experiments and tests


def random_rational_metric(n: int, rng: random.Random):
    """L1 distances of n distinct random points of (Z/4)^2 in [-5, 5]^2, the
    whole set redrawn until distinct: floats k/4 with 0 <= k <= 80, so they
    and their differences, maxima and comparisons are exact in float64."""
    while True:
        pts = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(n)]  # 4 * coordinates
        if len(set(pts)) == n:
            break
    rows = [[(abs(p[0] - q[0]) + abs(p[1] - q[1])) / 4 for q in pts] for p in pts]
    return FiniteMetricSpace(rows, validate=False)


def random_tree_metric(n: int, rng: random.Random):
    """Path metric of a random tree on n nodes with edge weights 1..9.

    Node v hangs from a parent p < v by an edge of weight w, so d(v, u) =
    d(p, u) + w for every u < v: the rows fill in node order, one draw of
    p and then of w per node."""
    rows = [[0] * n for _ in range(n)]
    for v in range(1, n):
        p, w = rng.randrange(v), rng.randint(1, 9)
        for u in range(v):
            rows[v][u] = rows[u][v] = rows[p][u] + w
    return FiniteMetricSpace(rows, validate=False)
