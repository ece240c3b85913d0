"""Group oracles and Cayley-ball enumeration.

Elements carry the group law themselves: `x * y`, `x.inverse()`, `x ** k`,
`==`, hashing, and a total order through `x.sort_key()`, so balls are
deduplicated with a hash map instead of quadratic equality scans.  An oracle
holds only what an element cannot know: the identity, the generators, the
text form of elements, and ball enumeration.  Generating sets are always
symmetrized before use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baumslag import BSElement, bs_identity, parse_bs
from .errors import BudgetExceeded
from .words import FreeWord, parse_word

DEFAULT_BALL_CAP = 2_000_000


class GroupOracle:
    """Base contract: the identity, generators and text form of one group."""

    def identity(self):
        raise NotImplementedError

    def generators(self) -> list:
        raise NotImplementedError

    def format_element(self, x) -> str:
        return str(x)

    def parse_element(self, text: str):
        raise NotImplementedError

    def symmetrize(self, gens) -> list:
        """Close under inversion, drop the identity, deduplicate, sort."""
        seen = {}
        for g in gens:
            for h in (g, g.inverse()):
                if h == self.identity():
                    continue
                seen.setdefault(h.sort_key(), h)
        return [seen[k] for k in sorted(seen)]

    def enumerate_ball(self, radius: int, gens=None, max_size: int = DEFAULT_BALL_CAP) -> "Ball":
        return enumerate_ball(self, radius, gens=gens, max_size=max_size)


@dataclass
class Ball:
    """All elements of word length <= radius, in BFS-then-lexicographic order.

    Per-element data are lists by row: `lengths[i]` is the exact word length
    of elements[i] with respect to the symmetrized generating set, so a
    sphere of radius r has `lengths.count(r)` elements, and `words[i]` is a
    witness geodesic spelling of elements[i].
    `products` holds, row by row, x * g for every generator g and every
    element x that enumeration expanded: the row of the product where it was
    already known, else the product itself.  `adjacency` completes it and
    resolves it once into `table`.
    """

    oracle: GroupOracle
    gens: list
    radius: int
    elements: list = field(default_factory=list)
    index: dict = field(default_factory=dict)
    lengths: list = field(default_factory=list)
    words: list = field(default_factory=list)
    products: list = field(default_factory=list, init=False, repr=False, compare=False)
    table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def adjacency(self) -> np.ndarray:
        """The in-ball Cayley graph as an n x k int32 table: entry [i, c] is
        the row of elements[i] * gens[c], or -1 when that product lies outside
        the ball.  The first call forms only the products of the rows that
        enumeration did not expand (the last sphere); the table is kept, and
        callers must not modify it."""
        if self.table is None:
            done = len(self.products) // max(1, len(self.gens))
            for x in self.elements[done:]:
                self.products.extend(x * g for g in self.gens)
            get = self.index.get
            rows = [p if type(p) is int else get(p, -1) for p in self.products]
            self.table = np.array(rows, dtype=np.int32).reshape(len(self.elements), len(self.gens))
            self.products = []
        return self.table


def enumerate_ball(oracle: GroupOracle, radius: int, gens=None, max_size: int = DEFAULT_BALL_CAP) -> Ball:
    if radius < 0:
        raise ValueError("radius must be >= 0")
    raw = oracle.generators() if gens is None else list(gens)
    sym = oracle.symmetrize(raw)
    labels = [oracle.format_element(g) for g in sym]
    ball = Ball(oracle=oracle, gens=sym, radius=radius)

    e = oracle.identity()
    ball.elements.append(e)
    ball.index[e] = 0
    ball.lengths.append(0)
    ball.words.append("1")
    frontier = [e]
    index, record = ball.index, ball.products.append
    for r in range(1, radius + 1):
        next_layer = {}
        for x in frontier:
            wx = ball.words[index[x]]
            for g, lab in zip(ball.gens, labels):
                y = x * g
                j = index.get(y)
                if j is not None:
                    record(j)
                    continue
                record(y)  # its row is known once the layer is sorted
                key = y.sort_key()
                if key not in next_layer:
                    next_layer[key] = (y, lab if wx == "1" else wx + "*" + lab)
        layer = []
        for key in sorted(next_layer):
            y, wy = next_layer[key]
            if len(ball.elements) >= max_size:
                raise BudgetExceeded(
                    f"ball size cap {max_size} exceeded at radius {r}",
                    extent={"radius_reached": r - 1, "elements": len(ball.elements)},
                )
            ball.index[y] = len(ball.elements)
            ball.elements.append(y)
            ball.lengths.append(r)
            ball.words.append(wy)
            layer.append(y)
        frontier = layer
        if not frontier:
            break
    return ball


class FreeGroupOracle(GroupOracle):
    """The free group F_rank on letters a, b, c, ..."""

    def __init__(self, rank: int = 2):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank

    def identity(self):
        return FreeWord.identity()

    def generators(self):
        return [FreeWord.generator(i) for i in range(self.rank)]

    def parse_element(self, text):
        return parse_word(text, rank=self.rank)

    def __repr__(self):
        return f"FreeGroupOracle(rank={self.rank})"


class BSOracle(GroupOracle):
    """BS(m, n) with generating set {a, t}, elements in Britton normal form."""

    def __init__(self, m: int, n: int):
        if m == 0 or n == 0:
            raise ValueError("BS(m, n) needs nonzero m, n")
        self.m = m
        self.n = n

    def identity(self):
        return bs_identity(self.m, self.n)

    def generators(self):
        a = BSElement(self.m, self.n, (), 1)
        t = BSElement(self.m, self.n, ((0, 1),), 0)
        return [a, t]

    def parse_element(self, text):
        return parse_bs(text, self.m, self.n)

    def __repr__(self):
        return f"BSOracle({self.m},{self.n})"
