"""Compressed generating sets: subword families S(w, n), exact compressed
word lengths, the overlap scanner, exponential families of loxodromics, and
the order-embedding of prefix sequences via cap vectors.

The compressed Cayley graph of W = X u S(w_1, n_1) u ... is implicit and
infinite.  Since W is closed under subwords and tree geodesics project onto
the target's prefix path, an exact distance is one greedy forward walk along
the target word: each hop takes the longest generator that starts where the
last one ended.  W is held as a letter trie of its generators, so each probe
of the walk is one dict step and a length costs O(|g|) probes; a power g^k
counts whole residue cycles and costs O(|g| * depth), whatever k is.
Budgets surface as BudgetExceeded, never as silently wrong answers; unit
tests cross-check against an independent materialized-graph oracle and the
slice-and-hash walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded
from .loxodromic import QuasiAxis, build_quasi_axis, translation_length_exact
from .words import FreeWord, format_word, parse_word, tree_distance

BF_BASE = 3  # g_n = f1 * f2^(3^n), the family of `make_bf_family`
BF_WINDOW = 1  # each member's quasi-axis runs from g^-1 to g^1
OVERLAP_MARGIN = 1  # `surrogate_overlap_caps` adds this to each scan maximum


def _substrings_with_provenance(big: tuple, out: dict, direction: int):
    L = len(big)
    for p in range(L):
        for q in range(p + 1, L + 1):
            sub = big[p:q]
            if sub not in out:
                out[sub] = (p, q - p, direction)


def subword_set(w: FreeWord, n: int) -> dict[FreeWord, tuple[int, int, int]]:
    """All subwords of w^{+-n} with a witness occurrence.

    Returns {subword: (offset, length, direction)} where direction +1 means
    the occurrence sits in w^n at the given letter offset and -1 in w^-n.
    """
    if not w:
        raise ValueError("subword families need a nonempty word")
    if n < 1:
        raise ValueError("materializing subwords needs a cap >= 1")
    big = (w**n).signed
    if len(big) != n * len(w):
        raise ValueError("family word must be cyclically reduced")
    found: dict[tuple, tuple[int, int, int]] = {}
    _substrings_with_provenance(big, found, +1)
    big_inv = (w ** (-n)).signed
    _substrings_with_provenance(big_inv, found, -1)
    return {FreeWord._raw(t): prov for t, prov in found.items()}


def subword_membership(u: FreeWord, w: FreeWord, n: int) -> bool:
    """Does u occur as a contiguous subword of w^n or w^-n?

    Subwords are taken linearly in the written word, not cyclically.
    """
    if not w:
        raise ValueError("membership needs a nonempty word")
    big, m, both = (w ** max(n, 0)).signed, len(u), (u.signed, u.inverse().signed)
    return bool(u) and any(big[i : i + m] in both for i in range(len(big) - m + 1))


class CompressedGenSet:
    """Base alphabet X of a free group plus subword families (w_i, n_i), each
    cap n_i an int >= 1."""

    def __init__(self, rank: int, families):
        self.rank = rank
        fams = []
        for w, cap in families:
            if isinstance(w, str):
                w = parse_word(w, rank=rank)
            if any(abs(x) > rank for x in w.signed):
                raise ValueError(f"family word {w} exceeds rank {rank}")
            if not w:
                raise ValueError("family words must be nonempty")
            if not w.is_cyclically_reduced():
                raise ValueError(f"family word {w} must be cyclically reduced")
            cap = int(cap)
            if cap < 1:
                raise ValueError("caps must be >= 1")
            fams.append((w, cap))
        self.families = tuple(fams)
        self._jump_cache: dict | None = None
        # letter trie of the generators: the base letters, and every subword
        # of w^cap and w^-cap.  Both words have period |w|, so the suffix at
        # p + |w| is a prefix of the suffix at p: the first |w| suffixes
        # spell every subword.
        self.trie: dict = {}
        for w, cap in fams:
            big = w.signed * cap
            for word in (big, tuple(-x for x in reversed(big))):
                for p in range(len(w)):
                    node = self.trie
                    for x in word[p:]:
                        node = node.setdefault(x, {})
        for i in range(1, rank + 1):
            self.trie.setdefault(i, {})
            self.trie.setdefault(-i, {})
        # the longest generator: no hop is longer
        self.depth = max([1] + [cap * len(w) for w, cap in fams])

    def jump_table(self) -> dict[FreeWord, tuple[int, int, int, int]]:
        """{jump word: (family, offset, length, direction)}, first family wins."""
        if self._jump_cache is None:
            table: dict[FreeWord, tuple[int, int, int, int]] = {}
            for fam_idx, (w, cap) in enumerate(self.families):
                for u, prov in subword_set(w, cap).items():
                    table.setdefault(u, (fam_idx, *prov))
            self._jump_cache = table
        return self._jump_cache

    def generators(self) -> list[FreeWord]:
        base = [FreeWord.generator(i, e) for i in range(self.rank) for e in (1, -1)]
        return sorted({*base, *self.jump_table()}, key=lambda u: u.signed)

    def __contains__(self, u: FreeWord) -> bool:
        node = self.trie
        for x in u.signed:
            node = node.get(x)
            if node is None:
                return False
        return bool(u)

    def to_json(self):
        names = [format_word(FreeWord.generator(i)) for i in range(self.rank)]
        return {
            "base": names,
            "families": [{"w": format_word(w), "cap": cap} for w, cap in self.families],
        }

    def __repr__(self):
        fams = ", ".join(f"({format_word(w)},{cap})" for w, cap in self.families)
        return f"CompressedGenSet(rank={self.rank}, families=[{fams}])"


def compressed_word_length(g: FreeWord, W: CompressedGenSet, budget: int = 2_000_000, power: int = 1):
    """Exact distance from the identity to g^power in the Cayley graph of W.

    Write g^power = t[0:L] as a reduced word.  A compressed geodesic projects
    onto the prefix path of t: in the tree, each hop's geodesic covers a
    segment of [1, t], and W is closed under subwords, so that segment is
    itself a generator.  The distance is therefore the fewest hops i -> j
    between the letter positions 0..L with t[i:j] (or t[j:i]) in W.

    The walk jumps from i to J(i), the largest j with t[i:j] in W.  Closure
    under subwords makes membership of t[i:j] monotone in j, so J(i) is
    found by extending one letter at a time until a probe fails.  Greedy
    jumps are never behind: if another position path stands at q <= p after
    k hops, with p the walk's position, and hops on to q' > p, then t[p:q']
    is a subword of the generator t[q:q'], hence J(p) >= q'.  Backward hops
    only fall further behind, so the walk reaches L first.

    A probe is one step down W's letter trie, the failing step included, so
    a hop from i to j costs j - i probes, plus one when j < L.  budget caps
    the probes of the whole walk: a hop stops extending where the next probe
    would cross it, and that probe raises BudgetExceeded.

    power > 1 needs a cyclically reduced g, so t[j] = g[j mod |g|].  No
    generator is longer than W.depth, so a hop from i < L - depth depends on
    i mod |g| alone.  When its residue was first seen at i0, the walk adds
    whole cycles of the stretch i0 -> i, as many as keep the skipped starts
    below L - depth and the probes within budget.  Probes count as walked.
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    if power > 1 and not g.is_cyclically_reduced():
        raise ValueError("powers need a cyclically reduced element")
    letters = g.signed
    n = len(letters)
    L = n * power
    root = W.trie
    far = L - W.depth if power > 1 else 0
    seen = {}  # residue of a hop start -> (start, hops, probes) there
    i = hops = probes = 0
    while i < L:
        if i < far:
            i0, h0, p0 = seen.setdefault(i % n, (i, hops, probes))
            if i0 < i:
                c = min((far - i) // (i - i0), (budget - probes) // (probes - p0))
                i, hops, probes = i + c * (i - i0), hops + c * (hops - h0), probes + c * (probes - p0)
        hops += 1
        node = root
        j = i
        stop = min(L, i + budget - probes)
        while j < stop:
            node = node.get(letters[j % n])
            if node is None:
                break
            j += 1
        probes += j - i + (j < L)
        if probes > budget:
            raise BudgetExceeded(
                f"compressed length probe budget {budget} exhausted",
                extent={"positions": L + 1, "depth_reached": hops - 1},
            )
        if j == i:
            raise ValueError("element is not generated by the base alphabet and families")
        i = j
    return hops


@dataclass
class LengthBoundReport:
    family: int
    k: int
    cap: int
    exact_length: int
    upper_bound: int
    upper_ok: bool
    alpha: float
    lower_bound: float
    lower_ok: bool
    fitted_alpha: float

    def to_json(self):
        return dict(self.__dict__)


def verify_length_bounds(j: int, k: int, W: CompressedGenSet, alpha: float, budget: int = 500_000) -> LengthBoundReport:
    """Check ceil(k/n_j) >= |w_j^k|_W >= alpha*k/n_j - 2 for one (j, k).

    The upper bound must hold unconditionally (S(w_j, n_j) is part of W); the
    lower bound is reported pass/fail for the supplied alpha, together with
    the largest alpha that would have passed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w, cap = W.families[j]
    exact = compressed_word_length(w, W, budget=budget, power=k)
    upper = -(-k // cap)
    lower = alpha * k / cap - 2.0
    fitted = (exact + 2.0) * cap / k
    return LengthBoundReport(
        family=j,
        k=k,
        cap=cap,
        exact_length=exact,
        upper_bound=upper,
        upper_ok=exact <= upper,
        alpha=alpha,
        lower_bound=lower,
        lower_ok=exact >= lower - 1e-12,
        fitted_alpha=fitted,
    )


def overlap_scan(axis_i: QuasiAxis, axis_j: QuasiAxis, r: float, translates) -> float:
    """max over translates a of diam{p on axis_i : d(p, a . axis_j) <= r}."""
    pts_i = axis_i.points()
    pts_j = axis_j.points()
    best = 0.0
    for a in translates:
        moved = [a * q for q in pts_j]
        close = [p for p in pts_i if min(tree_distance(p, q) for q in moved) <= r]
        diam = 0.0
        for idx, p in enumerate(close):
            for q in close[idx + 1 :]:
                d = tree_distance(p, q)
                if d > diam:
                    diam = d
        best = max(best, diam)
    return best


def surrogate_overlap_caps(axes, r: float, translates):
    """Finite-scale N_i surrogates: cross-overlap scan maxima plus
    OVERLAP_MARGIN.

    The true overlap bound ranges over the whole group; this replaces it by
    the scan over the supplied translate list.  Record the translates and
    margin alongside any report built on these caps.
    """
    out = []
    for i, axis in enumerate(axes):
        worst = 0.0
        for j, other in enumerate(axes):
            if j == i:
                continue
            worst = max(worst, overlap_scan(axis, other, r, translates))
        out.append(int(worst) + OVERLAP_MARGIN)
    return out


@dataclass
class BFFamily:
    """g_n = f1 * f2^(3^n): an exponentially separated loxodromic family."""

    members: list
    axes: list
    K: float
    L: float


def make_bf_family(f1: FreeWord, f2: FreeWord, count: int) -> BFFamily:
    """Members f1*f2^(3^n) for n = 1..count in a free group, each with its
    standard quasi-axis through the identity over a window of BF_WINDOW
    periods.  Every member must be loxodromic."""
    members = []
    axes = []
    K = 1.0
    L = 0.0
    for n in range(1, count + 1):
        g = f1 * f2 ** (BF_BASE**n)
        tau = translation_length_exact(g)
        if not tau:
            raise ValueError(f"family member {format_word(g)} is not loxodromic")
        members.append(g)
        axes.append(build_quasi_axis(g, BF_WINDOW))
        K = max(K, len(g) / tau)
    if len(set(members)) != len(members):
        raise ValueError("family members must be pairwise distinct")
    # L fitted over the materialized windows: path length <= K * d + L
    for axis in axes:
        verts = axis.vertices
        for ii in range(len(verts)):
            for jj in range(ii + 1, len(verts)):
                t1, p = verts[ii]
                t2, q = verts[jj]
                L = max(L, (t2 - t1) - K * tree_distance(p, q))
    return BFFamily(members=members, axes=axes, K=K, L=L)


# ---------------------------------------------------------------------------
# the sequence space Pi and its bounded-difference comparators


@dataclass(frozen=True)
class PiPrefix:
    """A finite prefix of a sequence r with 1 <= r(n) <= n."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        for idx, v in enumerate(self.values, start=1):
            if not 1 <= v <= idx:
                raise ValueError(f"invalid-prefix: r({idx}) = {v} not in [1, {idx}]")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass
class QksComparison:
    sup_diff: int
    max_abs_diff: int


def qks_compare(r: PiPrefix, s: PiPrefix) -> QksComparison:
    """sup_n (r(n) - s(n)) over a shared prefix, plus the symmetric variant.

    Any finite prefix has a finite sup, so the prefix-level relation always
    holds.
    """
    if len(r) != len(s):
        raise ValueError("length-mismatch: prefixes must have equal length")
    if len(r) == 0:
        raise ValueError("length-mismatch: prefixes must be nonempty")
    diffs = [a - b for a, b in zip(r.values, s.values)]
    return QksComparison(sup_diff=max(diffs), max_abs_diff=max(abs(d) for d in diffs))


@dataclass
class BorelMapConfig:
    """Fixed data behind the map r |-> W_(2^(i-r(i)) * N_i)."""

    rank: int
    family_words: list
    N: list[int]

    def __post_init__(self):
        self.family_words = [
            parse_word(w, rank=self.rank) if isinstance(w, str) else w
            for w in self.family_words
        ]


def borel_map_f(r: PiPrefix, config: BorelMapConfig) -> CompressedGenSet:
    """The compressed set with caps n_i = 2^(i - r(i)) * N_i, i = 1..len(r)."""
    if len(config.family_words) < len(r) or len(config.N) < len(r):
        raise ValueError("config must supply a word and N for every prefix index")
    fams = []
    for i, ri in enumerate(r.values, start=1):
        cap = (2 ** (i - ri)) * config.N[i - 1]
        fams.append((config.family_words[i - 1], cap))
    return CompressedGenSet(config.rank, fams)


@dataclass
class OrderPreservationReport:
    k: int
    bound: int
    generators_checked: int
    max_length: int
    max_ratio: float
    violations: list


def order_preservation_check(r: PiPrefix, s: PiPrefix, config: BorelMapConfig) -> OrderPreservationReport:
    """Verify that every materialized generator of f(s) has f(r)-length <= 2^k,
    k = sup(r - s) >= 0.

    Each generator is certified by a constructive bound: membership in f(r)
    gives length 1, and otherwise a subword of w_i^{+-n_i(s)} splits at the
    block boundaries of w_i^{n_i(r)} into subwords of w_i^{+-n_i(r)}, one per
    block it meets.  Since n_i(x) = 2^(i - x(i)) N_i, the word w_i^{+-n_i(s)}
    is n_i(s)/n_i(r) = 2^(r(i) - s(i)) <= 2^k whole blocks when r(i) >= s(i),
    and shorter than one block otherwise; so a subword meets at most
    max(1, 2^(r(i) - s(i))) <= 2^k blocks, and no exact search is ever
    needed.  A count above 2^k, which this rules out, would be recorded in
    `violations`.
    """
    cmp = qks_compare(r, s)
    k = cmp.sup_diff
    if k < 0:
        raise ValueError("order check needs sup(r - s) >= 0")
    bound = 2**k
    Wr = borel_map_f(r, config)
    Ws = borel_map_f(s, config)
    r_caps = {i: cap for i, (_, cap) in enumerate(Wr.families)}
    checked = 0
    max_len = 1
    max_ratio = 0.0
    violations = []
    for u, (fam, p, length, _direction) in Ws.jump_table().items():
        checked += 1
        if u in Wr:
            observed = 1
        else:
            B = r_caps[fam] * len(Ws.families[fam][0])
            observed = (p + length - 1) // B - p // B + 1
            if observed > bound:
                violations.append({"word": format_word(u), "blocks": observed, "family": fam})
        max_len = max(max_len, observed)
        max_ratio = max(max_ratio, observed / bound)
    return OrderPreservationReport(
        k=k,
        bound=bound,
        generators_checked=checked,
        max_length=max_len,
        max_ratio=max_ratio,
        violations=violations,
    )
