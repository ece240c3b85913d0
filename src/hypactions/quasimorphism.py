"""Quasi-morphisms on group oracles: substring-counting maps on free groups
with their exact defect, the stable-letter exponent sum on BS(m, n), exact
homogenization, subordination fitting, and anisotropy certificates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from .baumslag import BSElement
from .errors import CertificateError
from .groups import DEFAULT_BALL_CAP
from .loxodromic import translation_length_exact
from .metrics import ZERO_TOL, PseudoLength
from .words import FreeWord, count_occurrences, format_word


@dataclass
class QuasiMorphism:
    """A map q: G -> R with (empirically or analytically) bounded defect.

    `defect_bound` is an analytic bound when available (0 for homomorphisms).
    `counting_word` is w when q is the counting quasi-morphism of w
    (`brooks_qm`), the one kind `defect_empirical` scans.
    """

    evaluate: callable
    defect_bound: float | None = None
    counting_word: FreeWord | None = None

    def __call__(self, g) -> float:
        return float(self.evaluate(g))


def brooks_qm(w: FreeWord) -> QuasiMorphism:
    """Counting quasi-morphism of a reduced word w on the free group:
    occurrences of w in the reduced spelling of g, minus occurrences of w^-1,
    counted at every starting position (overlaps allowed).
    """
    if not w:
        raise ValueError("counting word must be nonempty")
    if _is_proper_power(w):
        warnings.warn(f"counting word {format_word(w)} is a proper power", stacklevel=2)
    w_inv = w.inverse()

    def evaluate(g: FreeWord) -> float:
        return float(count_occurrences(g, w) - count_occurrences(g, w_inv))

    return QuasiMorphism(evaluate, counting_word=w)


def _is_proper_power(w: FreeWord) -> bool:
    s = w.signed
    n = len(s)
    for period in range(1, n):
        if n % period == 0 and s == s[:period] * (n // period):
            return True
    return False


def exponent_sum_qm() -> QuasiMorphism:
    """The homomorphism BS(m, n) -> Z counting the stable-letter exponent."""

    def evaluate(g: BSElement) -> float:
        return float(g.t_exponent_sum())

    return QuasiMorphism(evaluate, defect_bound=0.0)


@dataclass
class DefectEstimate:
    """The defect a certificate uses and where it comes from.

    source "analytic": the quasi-morphism's own `defect_bound`, no pairs
    scanned; source "scan": the max over ordered pairs of some elements, with
    the first pair that reaches it; source "exact": that scan over a ball
    that holds a pair at the true defect (`defect_empirical`).
    """

    value: float
    witness: tuple | None
    pairs_checked: int
    source: str = "scan"

    def to_json(self, fmt=str):
        g, h = self.witness if self.witness else (None, None)
        return {
            "source": self.source,
            "value": self.value,
            "witness_pair": [fmt(g), fmt(h)] if g is not None else None,
            "pairs_checked": self.pairs_checked,
        }


def defect_empirical(q: QuasiMorphism, elements) -> DefectEstimate:
    """max |q(gh) - q(g) - q(h)| over all ordered pairs of `elements`, for a
    counting quasi-morphism (`q.counting_word` set; ValueError otherwise): a
    certified lower bound on the true defect.  The witness is the first pair,
    in the order of `elements` (g outer, h inner), that reaches the max, and
    `pairs_checked` counts the n^2 pairs covered.

    On any set holding the ball B(2(|w| - 1)) the scan gives the exact
    defect (Brooks, "Some remarks on bounded cohomology", 1981).  Write
    g = u x and h = x^-1 v reduced, x the part that cancels, and let s(a, b)
    count the signed occurrences of w across the seam of a reduced a b.  As
    q(x^-1) = -q(x),

        q(gh) - q(g) - q(h) = s(u, v) - s(u, x) - s(x^-1, v),

    and each s reads at most |w| - 1 letters on either side of its seam, so
    cutting u to its last |w| - 1 letters and x and v to their first keeps
    every term and leaves a pair in B(2(|w| - 1)).

    The scan goes by cancellation length (`_counting_defect`): every ordered
    pair is covered, gh is never formed, and the cost is O(n R) table
    lookups for a ball of radius R instead of O(n^2) products.
    """
    if q.counting_word is None:
        raise ValueError("defect_empirical scans counting quasi-morphisms only")
    elements = list(elements)
    best, witness = _counting_defect(q.counting_word, elements)
    return DefectEstimate(value=float(best), witness=witness, pairs_checked=len(elements) ** 2)


def _counting_defect(w: FreeWord, elements):
    """(max, first maximising pair or None) of |q(gh) - q(g) - q(h)| over
    ordered pairs of reduced words, q the counting quasi-morphism of w.

    Let c be the length of the common prefix of g^-1 and h.  Then gh is the
    reduced concatenation u v with u = g[:|g| - c] and v = h[c:], so

        q(gh) - q(g) - q(h) = A(g, c) + B(h, c) + seam(ends(u), starts(v)),

    where A = q(u) - q(g), B = q(v) - q(h), and the seam term counts the
    occurrences of w and w^-1 that straddle the cut.  Those are fixed by two
    bitmasks over the k - 1 splits of each of w and w^-1: which heads w[:j]
    the word u ends with, and which tails w[j:] the word v starts with.

    The h's go into a prefix trie.  B(h, c) counts the occurrences in h that
    start before c, so it is fixed by the node s = h[:c] and the starts mask
    of h[c:]; at each node, h's are grouped by their next letter x (0 when
    h = s) and starts mask, keeping B and the first index.  The h's that
    cancel exactly c letters against g are those at the node g^-1[:c] whose
    next letter is not g^-1[c], so each g reads at most |g| + 1 nodes.  Per
    g, the first h reaching its best value is the smallest such index; the
    first g whose best is the overall max then gives the same witness as a
    loop over the pairs in that order.
    """
    pattern, pattern_inv = w.signed, w.inverse().signed
    k = len(pattern)
    heads = [p[:j] for p in (pattern, pattern_inv) for j in range(1, k)]
    tails = [p[j:] for p in (pattern, pattern_inv) for j in range(1, k)]
    low = (1 << (k - 1)) - 1  # the splits of w; the high bits are those of w^-1

    def occurrences(s):
        # +1 where w starts, -1 where w^-1 starts, 0 elsewhere
        return [(s[i : i + k] == pattern) - (s[i : i + k] == pattern_inv) for i in range(len(s) - k + 1)]

    # a node is (children by letter, {next letter: {starts: (B, first index)}})
    root = ({}, {})
    for index, h in enumerate(elements):
        s = h.signed
        occ = occurrences(s)
        node, before = root, 0  # before: signed occurrences starting before c
        for c in range(len(s) + 1):
            starts = 0
            for bit, tail in enumerate(tails):
                if s[c : c + len(tail)] == tail:
                    starts |= 1 << bit
            node[1].setdefault(s[c] if c < len(s) else 0, {}).setdefault(starts, (-before, index))
            if c == len(s):
                break
            if c < len(occ):
                before += occ[c]
            node = node[0].setdefault(s[c], ({}, {}))

    best, witness = 0, None
    for g in elements:
        s = g.signed
        m = len(s)
        inv = tuple(-x for x in reversed(s))
        occ = occurrences(s)
        g_best, g_index = 0, None
        node, after = root, 0  # after: signed occurrences of g ending past m - c
        for c in range(m + 1):
            e = m - c
            ends = 0
            for bit, head in enumerate(heads):
                if e >= len(head) and s[e - len(head) : e] == head:
                    ends |= 1 << bit
            skip = inv[c] if c < m else None
            for letter, table in node[1].items():
                if letter == skip:
                    continue
                for starts, (b, i) in table.items():
                    both = ends & starts
                    d = abs((both & low).bit_count() - (both >> (k - 1)).bit_count() - after + b)
                    if d > g_best or (d == g_best and d and i < g_index):
                        g_best, g_index = d, i
            if c == m:
                break
            if c < len(occ):
                after += occ[len(occ) - 1 - c]
            node = node[0].get(inv[c])
            if node is None:
                break
        if g_best > best:
            best, witness = g_best, (g, elements[g_index])
    return best, witness


def homogenization(q: QuasiMorphism, g) -> float:
    """The homogenization lim q(g^n)/n, exactly.

    A homomorphism (`defect_bound` 0) is its own.  For the counting
    quasi-morphism of w, write g = u c u^-1 reduced with c cyclically
    reduced: g^n = u c^n u^-1 is reduced, and away from both seams each copy
    of c adds cyc_w(c) - cyc_{w^-1}(c), where cyc_w(c) counts the positions
    i in 0..|c| - 1 at which w reads off the periodic word ccc... (Calegari,
    scl, MSJ Memoirs 20, 2009, section 2.3).
    """
    if q.defect_bound == 0:
        return q(g)
    if q.counting_word is None:
        raise ValueError("exact homogenization needs a homomorphism or a counting quasi-morphism")
    k, core = len(q.counting_word), translation_length_exact(g)  # |c| is the translation length
    c = g.signed[(len(g) - core) // 2 : (len(g) + core) // 2]
    # q counts w and w^-1 at the |c| start positions of this prefix of ccc...
    return q(FreeWord((c * (k + 1))[: core + k - 1]))


@dataclass
class SubordinationFit:
    M: float
    mode: str  # "slope" when q vanishes on the zero-length locus, else "affine"
    witness: object


def subordination_fit(q: QuasiMorphism, lengths: PseudoLength) -> SubordinationFit:
    """Fit the smallest M with |q(g)| <= M * l(g) + M on the ball.

    When q vanishes wherever l does, the natural constant is the slope-only
    fit max |q(g)| / l(g) (so the stable-letter sum against the t-syllable
    length fits M = 1, one unit per syllable); otherwise the affine fit
    max |q(g)| / (l(g) + 1) is returned.
    """
    return _fit([(g, abs(q(g)), lengths(g)) for g in lengths.domain])


def _fit(evaluated) -> SubordinationFit:
    """`subordination_fit` from the (g, |q(g)|, l(g)) of every domain element."""
    if not evaluated:
        raise ValueError("empty-domain")
    affine = 0.0
    slope = 0.0
    witness = None
    vanishes_on_kernel = True
    for g, value, length in evaluated:
        c = value / (length + 1.0)
        if c > affine:
            affine = c
            witness = g
        if length <= ZERO_TOL:
            if value > ZERO_TOL:
                vanishes_on_kernel = False
        else:
            slope = max(slope, value / length)
    if vanishes_on_kernel:
        return SubordinationFit(M=slope, mode="slope", witness=witness)
    return SubordinationFit(M=affine, mode="affine", witness=witness)


@dataclass
class AnisotropyCertificate:
    """A re-checkable certificate that a general-type action is anisotropic.

    Contains every evaluated inequality: per-element subordination rows and
    the exact defect with its witness pair.  The homogenized value is exact
    (`homogenization`), an integer held as a float.  A nonzero homogenized
    value of a subordinate quasi-morphism at g makes g loxodromic and
    inequivalent to its inverse, so the action is not weakly isotropic.
    """

    witness: object
    homogenized_value: float
    subordination_M: float
    subordination_mode: str
    ball_radius: int
    defect: DefectEstimate
    rows: list  # (formatted element, |q(g)|, l(g))
    conclusion: str

    def to_json(self, fmt=str):
        return {
            "witness": fmt(self.witness),
            "homogenized_value": self.homogenized_value,
            "subordination_M": self.subordination_M,
            "subordination_mode": self.subordination_mode,
            "ball_radius": self.ball_radius,
            "defect": self.defect.to_json(fmt),
            "rows": [list(r) for r in self.rows],
            "conclusion": self.conclusion,
        }


def anisotropy_certificate(
    oracle,
    q: QuasiMorphism,
    lengths: PseudoLength,
    g,
    ball,
    ball_cap: int = DEFAULT_BALL_CAP,
) -> AnisotropyCertificate:
    """Emit a certificate iff g lies in the ball, the homogenized value at g
    is nonzero and q is subordinate to the supplied orbit pseudo-length on
    the ball with a positive constant M (M = 0 beside a nonzero value means
    that the ball is too small to show q growing).

    The defect is q's analytic bound when it has one, else the exact
    defect of a counting quasi-morphism of w: the scan of the ordered pairs
    of B(2(|w| - 1)) (`defect_empirical`), whatever the radius of `ball`,
    enumerated within `ball_cap`.  The caller asserts that the pseudo-length
    comes from a general-type action; the conclusion text presumes it.
    """
    if g not in ball:
        detail = f"{oracle.format_element(g)} is not in the radius-{ball.radius} ball"
        raise CertificateError("witness-outside-ball", detail)
    value = homogenization(q, g)
    if value == 0:
        raise CertificateError("zero-value", f"homogenized value at {oracle.format_element(g)} is 0")
    if q.defect_bound is not None:
        defect = DefectEstimate(value=q.defect_bound, witness=None, pairs_checked=0, source="analytic")
    else:  # a counting quasi-morphism: `homogenization` refuses any other q without a bound
        pairs = oracle.enumerate_ball(2 * (len(q.counting_word) - 1), max_size=ball_cap)
        defect = replace(defect_empirical(q, pairs.elements), source="exact")
    evaluated = [(h, abs(q(h)), lengths(h)) for h in lengths.domain]
    fit = _fit(evaluated)
    if fit.M == 0:  # |q(g^n)| <= M l(g^n) + M for every n would force the homogenization at g to 0
        detail = f"fitted M = 0 on the radius-{ball.radius} ball beside the nonzero homogenized value {value:g}"
        raise CertificateError("not-subordinate", detail)
    rows = sorted((oracle.format_element(h), value, length) for h, value, length in evaluated)
    conclusion = (
        "the quasi-morphism is subordinate to the orbit pseudo-length with "
        f"constant M = {fit.M:g} and has nonzero homogenized value "
        f"{value:g} at the witness, so the witness acts loxodromically "
        "and is not equivalent to its inverse: the action is not weakly "
        "isotropic and the group is anisotropic"
    )
    return AnisotropyCertificate(
        witness=g,
        homogenized_value=value,
        subordination_M=fit.M,
        subordination_mode=fit.mode,
        ball_radius=ball.radius,
        defect=defect,
        rows=rows,
        conclusion=conclusion,
    )
