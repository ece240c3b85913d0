"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive and separate from the package
implementations: repeated-scan free reduction, exhaustive product
enumeration, a BS(m, n) normal form spelled back as the token stream
`bs_normalize` reads, materialized-graph Dijkstra, a breadth-first search over the
letter positions for compressed lengths and the slice-and-hash probe walk
that the letter trie replaced, a plain-loop four-point scan,
the n^3-per-basepoint four-point scan in float64 Gromov products, the first worst
point from every np.nonzero hit of `metrics._defect_blocks` in float64 (the one
oracle that reads package code: it checks the search for the hit, not the blocks),
and the float64 sampled scan, one product per element and generator for the in-ball Cayley graph,
per-source BFS and per-pair geodesic walks for the in-ball graph metric,
a per-source walk over parent and child links for a random tree's metric,
cone-off and the coned metric, trial division up to sqrt(d) for square-freeness, the
memoised pairwise scan for the defect of a quasi-morphism, q(g^n)/n for its
homogenization, the pseudo-length axioms and subordination checked element by element, Q(sqrt(d)) and its
2x2 matrices in `Fraction` coordinates a + b*sqrt(d), and the tight-span
projector as a plain loop over Fraction rows, and the isotropy probe over
`FreeWord` pairs grouped in a dict with one product per candidate g.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np


def reduce_naive(letters):
    """Remove adjacent inverse pairs by repeated full scans until stable."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i : i + 2]
                changed = True
                break
    return tuple(word)


def cyclic_reduce_naive(letters):
    word = reduce_naive(letters)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return word


def power_naive(letters, n):
    if n < 0:
        letters = [-x for x in reversed(letters)]
        n = -n
    return reduce_naive(list(letters) * n)


def bs_tokens(x):
    """The normal form of a BS(m, n) element as ('a', k) / ('t', +-1) tokens."""
    out = []
    for exp, eps in x.pairs:
        if exp:
            out.append(("a", exp))
        out.append(("t", eps))
    if x.tail:
        out.append(("a", x.tail))
    return out


def free_ball_naive(rank, radius):
    """All reduced words of length <= radius via exhaustive letter strings."""
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    seen = {()}
    for n in range(1, radius + 1):
        for combo in product(alphabet, repeat=n):
            w = reduce_naive(combo)
            if len(w) == n:
                seen.add(w)
    return seen


def min_product_length(target, gens, radius):
    """Smallest k <= radius with target a product of k generators (else None).

    gens and target are signed-letter tuples; this is the exhaustive cross
    check for BFS layer indices.
    """
    if target == ():
        return 0
    for k in range(1, radius + 1):
        for combo in product(gens, repeat=k):
            word = []
            for g in combo:
                word.extend(g)
            if reduce_naive(word) == target:
                return k
    return None


def dijkstra_compressed_naive(target, generators, radius):
    """BFS distance 1 -> target in the materialized compressed graph.

    Vertices are all reduced words of length <= radius; edges multiply by a
    generator on the right.  Returns None when the target is unreachable
    inside the truncation.
    """
    from collections import deque

    def mul(a, b):
        return reduce_naive(list(a) + list(b))

    dist = {(): 0}
    queue = deque([()])
    while queue:
        u = queue.popleft()
        for g in generators:
            v = mul(u, g)
            if len(v) > radius or v in dist:
                continue
            dist[v] = dist[u] + 1
            queue.append(v)
    return dist.get(tuple(target))


def compressed_length_bfs(target, jump_sigs, rank):
    """Compressed length of a reduced word by BFS over its letter positions.

    Positions i, j in 0..len(target) are adjacent iff the segment between
    them is a base letter (|letter| <= rank) or lies in jump_sigs; hops go
    both ways and span at most the longest jump.  Returns None when the
    last position is unreachable.
    """
    L = len(target)
    span = max(map(len, jump_sigs), default=1)
    dist = [None] * (L + 1)
    dist[0] = 0
    frontier = [0]
    d = 0
    while frontier and dist[L] is None:
        d += 1
        nxt = []
        for i in frontier:
            for j in range(max(0, i - span), min(L, i + span) + 1):
                if j == i or dist[j] is not None:
                    continue
                seg = target[min(i, j) : max(i, j)]
                if (len(seg) == 1 and abs(seg[0]) <= rank) or seg in jump_sigs:
                    dist[j] = d
                    nxt.append(j)
        frontier = nxt
    return dist[L]


def compressed_length_sliced(target, jump_sigs, rank, budget):
    """The greedy compressed-length walk with one slice and one hash per probe.

    From position i, probe target[i:j+1] for j = i, i+1, ...: a base letter
    (|letter| <= rank) or a member of jump_sigs extends the hop, and the
    first failing probe ends it.  Returns (outcome, probes), where outcome is
    ("hops", n), ("budget", message, extent) at the probe that crosses
    budget, or ("unreachable", message) when a position starts no generator.
    """
    L = len(target)
    i = hops = probes = 0
    while i < L:
        hops += 1
        j = i
        while j < L:
            probes += 1
            if probes > budget:
                extent = {"positions": L + 1, "depth_reached": hops - 1}
                return ("budget", f"compressed length probe budget {budget} exhausted", extent), probes
            seg = target[i : j + 1]
            if not ((j == i and abs(seg[0]) <= rank) or seg in jump_sigs):
                break
            j += 1
        if j == i:
            return ("unreachable", "element is not generated by the base alphabet and families"), probes
        i = j
    return ("hops", hops), probes


def four_point_delta_naive(rows):
    """Plain quadruple loops; returns the unclamped maximum defect."""
    n = len(rows)
    best = float("-inf")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for t in range(n):
                    xy = (rows[x][t] + rows[y][t] - rows[x][y]) / 2
                    yz = (rows[y][t] + rows[z][t] - rows[y][z]) / 2
                    xz = (rows[x][t] + rows[z][t] - rows[x][z]) / 2
                    best = max(best, min(xy, yz) - xz)
    return best


def basepoint_scan_naive(D, l):
    """All n^3 ordered defects with basepoint t = l in one float64 array of
    Gromov products.  Returns (max, first maximising (i, j, k, l) in
    row-major order)."""
    col = D[:, l]
    G = (col[:, None] + col[None, :] - D) / 2.0
    T = np.minimum(G[:, :, None], G[None, :, :]) - G[:, None, :]
    i, j, k = np.unravel_index(int(np.argmax(T)), T.shape)
    return float(T.max()), (int(i), int(j), int(k), l)


def four_point_delta_basepoint(D):
    """The ordered scan one basepoint l at a time (`basepoint_scan_naive`).
    Returns (raw max, first maximising (i, j, k, l)): the first basepoint
    reaching the maximum, and its first argmax in row-major order.
    """
    best = -math.inf
    best_w = (0, 0, 0, 0)
    for l in range(D.shape[0]):
        m, w = basepoint_scan_naive(D, l)
        if m > best:
            best, best_w = m, w
    return best, best_w


def first_worst_point_nonzero(D):
    """The smallest point of any quadruple, repeated points allowed, whose
    worst defect is the largest, from every hit of every float64
    `metrics._defect_blocks` block, listed by np.nonzero."""
    from hypactions.metrics import _defect_blocks

    best, low = 0, 0  # the quadruple (0, 0, 0, 0)
    for block, offsets in _defect_blocks(np.asarray(D, dtype=np.float64)):
        m = block.max()
        if m > best or (m == best and low > 0):
            first = min(o + int(at.min()) for o, at in zip(offsets, np.nonzero(block == m)))
            low = first if m > best else min(low, first)
            best = m
    return low


def quadruple_defect_naive(D, quad):
    """min{(x,y)_t, (y,z)_t} - (x,z)_t from float64 Gromov products, one
    defect per position when x, y, z and t are index arrays."""
    i, j, k, l = quad
    gp = lambda a, b: (D[a, l] + D[b, l] - D[a, b]) / 2.0
    return np.minimum(gp(i, j), gp(j, k)) - gp(i, k)


def four_point_delta_sampled_naive(D, count, seed=None):
    """The sampled scan as one float64 defect array per 250,000 drawn
    quadruples.  Returns (raw max, first maximising quadruple in draw
    order, seed, quadruples checked)."""
    n = D.shape[0]
    rng = np.random.default_rng(0 if seed is None else seed)
    best = -math.inf
    best_w = (0, 0, 0, 0)
    remaining = count
    chunk = 250_000
    while remaining > 0:
        m_now = min(chunk, remaining)
        remaining -= m_now
        idx = rng.integers(0, n, size=(4, m_now))
        defect = quadruple_defect_naive(D, idx)
        m = float(defect.max())
        if m > best:
            best = m
            best_w = tuple(int(v) for v in idx[:, int(np.argmax(defect))])
    return best, best_w, 0 if seed is None else seed, count


def neighbour_table_naive(ball):
    """Row i, column c: the index of elements[i] * gens[c] in the ball, or -1
    when the product lies outside it; one product per element and generator."""
    return [[ball.index.get(x * g, -1) for g in ball.gens] for x in ball.elements]


def adjacency_naive(ball):
    """Sorted in-ball neighbour lists of the ball's Cayley graph."""
    return [sorted({j for j in row if j >= 0}) for row in neighbour_table_naive(ball)]


def graph_metric_naive(adj):
    """All-pairs BFS distances from adjacency lists, one source at a time.

    Entries are ints, with math.inf where a pair is unreachable.
    """
    n = len(adj)
    rows = [[math.inf] * n for _ in range(n)]
    for s in range(n):
        row = rows[s]
        row[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if row[v] == math.inf:
                        row[v] = d
                        nxt.append(v)
            frontier = nxt
    return rows


def tree_metric_naive(n, rng):
    """The rows of `metrics.random_tree_metric(n, rng)`: the same draws of a
    parent and a weight per node, then a walk from every source over the
    parent and child links."""
    parent = [0] * n
    weight = [0] * n
    for v in range(1, n):
        parent[v] = rng.randrange(v)
        weight[v] = rng.randint(1, 9)
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    rows = [[0] * n for _ in range(n)]
    for s in range(n):
        dist = {s: 0}
        stack = [s]
        while stack:
            u = stack.pop()
            nbrs = [(parent[u], weight[u])] if u != 0 else []
            nbrs += [(c, weight[c]) for c in children[u]]
            for v, w in nbrs:
                if v not in dist:
                    dist[v] = dist[u] + w
                    stack.append(v)
        for t in range(n):
            rows[s][t] = dist[t]
    return rows


def coned_metric_naive(adjacency, new_edges):
    """All-pairs BFS distances of the graph `adjacency` with `new_edges` added."""
    coned = [set(nbrs) for nbrs in adjacency]
    for x, y in new_edges:
        coned[x].add(y)
        coned[y].add(x)
    return graph_metric_naive([sorted(nbrs) for nbrs in coned])


def cone_off_edges_naive(adj, D0, allowed):
    """Pairs x < y at distance >= 2 joined by a geodesic through allowed
    vertices only, found by walking the geodesic DAG from x; row-major order.
    """
    n = len(adj)
    edges = []
    for x in range(n):
        for y in range(x + 1, n):
            total = D0[x][y]
            if not (allowed[x] and allowed[y]) or total == math.inf or total < 2:
                continue
            stack, seen = [x], {x}
            while stack:
                u = stack.pop()
                if u == y:
                    edges.append((x, y))
                    break
                for v in adj[u]:
                    on_geodesic = D0[x][v] == D0[x][u] + 1 and D0[x][v] + D0[v][y] == total
                    if v not in seen and allowed[v] and on_geodesic:
                        seen.add(v)
                        stack.append(v)
    return edges


def acosh_decimal(x, places=40):
    """High-precision arccosh via Decimal: ln(x + sqrt(x^2 - 1))."""
    from decimal import Decimal, getcontext

    getcontext().prec = places + 10
    d = Decimal(x)
    return float((d + (d * d - 1).sqrt()).ln())


def is_square_free_naive(d):
    """Trial division by every k with k^2 <= d."""
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def defect_naive(q, elements):
    """max |q(gh) - q(g) - q(h)| over ordered pairs, memoising q on every
    element and product; returns (value, first maximising pair or None)."""
    elements = list(elements)
    best = 0.0
    witness = None
    values = {}

    def q_of(g):
        if g not in values:
            values[g] = q(g)
        return values[g]

    for g in elements:
        for h in elements:
            d = abs(q_of(g * h) - q_of(g) - q_of(h))
            if d > best:
                best = d
                witness = (g, h)
    return best, witness


def homogenize_naive(q, g, n):
    """q(g^n)/n for a free word g, with g^n reduced by `power_naive`."""
    return q(type(g)(power_naive(g.signed, n))) / n


def pseudo_length_violation(identity, values):
    """The first failed pseudo-length axiom of the map g -> values[g] on its
    domain, as (axiom, witness), or None: 0 at the identity, non-negative,
    symmetric on each g whose inverse is in the domain, and subadditive on
    each pair whose product is; one product per pair, 1e-12 slack."""
    tol = 1e-12
    if identity not in values or abs(values[identity]) > tol:
        return "identity", identity
    for g, v in values.items():
        if v < -tol:
            return "non-negativity", g
        if g.inverse() in values and abs(values[g.inverse()] - v) > tol:
            return "symmetry", g
    for g, vg in values.items():
        for h, vh in values.items():
            vgh = values.get(g * h)
            if vgh is not None and vgh > vg + vh + tol:
                return "subadditivity", (g, h)
    return None


def subordinate(q, lengths, M):
    """|q(g)| <= M * l(g) + M, up to 1e-12, at every g in the domain of the
    pseudo-length `lengths`."""
    return all(abs(q(g)) <= M * lengths(g) + M + 1e-12 for g in lengths.domain)


def _sign(x):
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class FractionQuadField:
    """a + b*sqrt(d) with Fraction a, b: the field arithmetic term by term."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not is_square_free_naive(self.d):
            raise ValueError(f"d must be square-free and >= 2, got {self.d}")

    def _coerce(self, other):
        if isinstance(other, FractionQuadField):
            if self.d != other.d:
                raise ValueError("elements of different quadratic fields")
            return other
        return FractionQuadField(Fraction(other), Fraction(0), self.d)

    def __add__(self, other):
        other = self._coerce(other)
        return FractionQuadField(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        return FractionQuadField(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self):
        return FractionQuadField(-self.a, -self.b, self.d)

    def __mul__(self, other):
        other = self._coerce(other)
        return FractionQuadField(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    def __truediv__(self, other):
        other = self._coerce(other)
        norm = other.a * other.a - other.b * other.b * other.d
        if norm == 0:
            raise ZeroDivisionError("division by zero field element")
        num = self * FractionQuadField(other.a, -other.b, other.d)
        return FractionQuadField(num.a / norm, num.b / norm, self.d)

    def sign_under(self, embedding_sign):
        """Exact sign of a + b*embedding_sign*sqrt(d)."""
        a, b = self.a, self.b * embedding_sign
        if b == 0:
            return _sign(a)
        if a == 0:
            return _sign(b)
        if _sign(a) == _sign(b):
            return _sign(a)
        lhs, rhs = a * a, b * b * self.d
        if lhs == rhs:
            return 0
        return _sign(a) if lhs > rhs else _sign(b)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt{self.d}" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt{self.d}"
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        return f"{self.a}{sign}{root}"


@dataclass(frozen=True)
class FractionMat2:
    """A determinant-one 2x2 matrix over `FractionQuadField`."""

    a: FractionQuadField
    b: FractionQuadField
    c: FractionQuadField
    d: FractionQuadField

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not (det.a == 1 and det.b == 0):
            raise ValueError(f"determinant must be exactly 1, got {det}")

    def __mul__(self, other):
        return FractionMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return FractionMat2(self.d, -self.b, -self.c, self.a)

    def sort_key(self):
        return tuple((e.a, e.b) for e in (self.a, self.b, self.c, self.d))


def project_to_hull_loop(vals, rows, tol, max_iter=10_000):
    """The tight-span projector as a plain loop: g <- (g + q(g))/2 with
    q(g)(x) = max_y (rows[x][y] - g(y)), each Fraction entry subtracted from
    a float.  Returns (values, iterations), or None without convergence."""
    vals = tuple(float(v) for v in vals)
    n = len(rows)
    for it in range(max_iter + 1):
        q = tuple(max(rows[x][y] - vals[y] for y in range(n)) for x in range(n))
        if max(abs(a - b) for a, b in zip(vals, q)) <= tol:
            return vals, it
        vals = tuple((a + b) / 2.0 for a, b in zip(vals, q))
    return None


def match_pair(candidates, x, y, x2, y2, dist):
    """Best g among candidates for max{d(gx, x'), d(gy, y')}: (cost, g)."""
    best_c, best_g = float("inf"), None
    for g in candidates:
        c = max(dist(g * x, x2), dist(g * y, y2))
        if c < best_c:
            best_c, best_g = c, g
            if c == 0:
                break
    return best_c, best_g


def isotropy_pairs_naive(elements):
    """Every pair (x, y), y after x, listed under its tree distance d > 0."""
    from hypactions.words import tree_distance

    by_distance = {}
    for i, x in enumerate(elements):
        for y in elements[i:]:
            d = tree_distance(x, y)
            if d > 0:
                by_distance.setdefault(int(d), []).append((x, y))
    return by_distance


def isotropy_probe_naive(ball, D, sample_size, seed=0, by_distance=None):
    """The isotropy probe over `isotropy_pairs_naive` (pass its result as
    `by_distance` to reuse it), with gx and gy formed as words."""
    from hypactions.loxodromic import IsotropyReport, ProbePairResult
    from hypactions.words import tree_distance

    rng = random.Random(seed)
    elements = ball.elements
    if by_distance is None:
        by_distance = isotropy_pairs_naive(elements)
    eligible = [d for d, pairs in sorted(by_distance.items()) if len(pairs) >= 2]
    results = []
    for _ in range(sample_size):
        d = rng.choice(eligible)
        (x, y), (x2, y2) = rng.sample(by_distance[d], 2)
        best_c, best_g = match_pair(elements, x, y, x2, y2, tree_distance)
        results.append(ProbePairResult(x, y, x2, y2, float(d), float(best_c), best_g, best_c <= D))
    return IsotropyReport(
        pairs_checked=len(results),
        successes=sum(r.success for r in results),
        failures=[r for r in results if not r.success],
        hardest=max(results, key=lambda r: r.best_constant, default=None),
    )
