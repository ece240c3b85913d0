"""Quasi-morphisms on group oracles: substring-counting maps on free groups
with their exact defect, the stable-letter exponent sum on BS(m, n), exact
homogenization, subordination fitting, and anisotropy certificates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .baumslag import BSElement
from .errors import CertificateError
from .groups import DEFAULT_BALL_CAP
from .loxodromic import translation_length_exact
from .metrics import ZERO_TOL
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
    if is_proper_power(w):
        warnings.warn(f"counting word {format_word(w)} is a proper power", stacklevel=2)
    w_inv = w.inverse()

    def evaluate(g: FreeWord) -> float:
        return float(count_occurrences(g, w) - count_occurrences(g, w_inv))

    return QuasiMorphism(evaluate, counting_word=w)


def is_proper_power(w: FreeWord) -> bool:
    """Whether w is v^n for some word v and n > 1."""
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
    evaluated; source "exact": the seam-class maximum of `defect_empirical`,
    with the pair (g, h) that reaches it and the number of pairs evaluated.
    """

    value: float
    witness: tuple | None
    pairs_checked: int
    source: str = "exact"

    def to_json(self, fmt=str):
        g, h = self.witness if self.witness else (None, None)
        return {
            "source": self.source,
            "value": self.value,
            "witness_pair": [fmt(g), fmt(h)] if g is not None else None,
            "pairs_checked": self.pairs_checked,
        }


def defect_empirical(q: QuasiMorphism, elements) -> DefectEstimate:
    """The defect sup |q(gh) - q(g) - q(h)| of a counting quasi-morphism
    (`q.counting_word` = w set; ValueError otherwise), exact when `elements`
    holds the ball B(|w| - 1), and otherwise a lower bound reached by the
    witness pair.

    Write g = u x and h = x^-1 v with u x, x^-1 v and u v reduced, x the
    part that cancels, and let s(a, b) count the signed occurrences of w
    across the seam of a reduced a b.  As q(x^-1) = -q(x),

        q(gh) - q(g) - q(h) = s(u, v) - s(u, x) - s(x^-1, v)

    (Brooks, "Some remarks on bounded cohomology", 1981).  s(a, b) is the
    signed popcount of ends(a) & starts(b), where bit j of ends(a) says a
    ends with the head w[:j] (or w^-1[:j]), and bit j of starts(b) that b
    starts with the tail w[j:] (or w^-1[j:]), over the |w| - 1 splits of w
    and of w^-1.  So a left side u counts only as its class (last letter,
    ends mask), and a right side x or v as (first letter, starts mask, ends
    mask of its inverse), with letter 0 for the empty word, which cancels
    against nothing.  The last |w| - 1 letters of u, or the first of x or
    v, keep the class, so B(|w| - 1) holds every class.

    The max runs over triples of classes, each kept as its first element in
    `elements`, whose letters make the three products reduced.  The witness
    is (u x, x^-1 v) of the first triple (u outer, v inner) that reaches
    the max, or None when it is 0, and `pairs_checked` counts the triples:
    each is one pair (g, h).
    """
    if q.counting_word is None:
        raise ValueError("defect_empirical evaluates counting quasi-morphisms only")
    w = q.counting_word.signed
    k = len(w)
    splits = [(p[:j], p[j:]) for p in (w, q.counting_word.inverse().signed) for j in range(1, k)]

    def ends(s):
        return sum(1 << bit for bit, (head, _) in enumerate(splits) if s[-len(head) :] == head)

    def starts(s):
        return sum(1 << bit for bit, (_, tail) in enumerate(splits) if s[: len(tail)] == tail)

    def seam(left_ends, right_starts):
        both = left_ends & right_starts  # the low k - 1 bits are w's splits, the high ones w^-1's
        return (both & ((1 << (k - 1)) - 1)).bit_count() - (both >> (k - 1)).bit_count()

    lefts, rights = {}, {}
    for g in elements:
        s, inv = g.signed, g.inverse().signed
        lefts.setdefault((s[-1] if s else 0, ends(s)), g)
        rights.setdefault((s[0] if s else 0, starts(s), ends(inv)), g)
    best, witness, triples = 0, None, 0
    for (last_u, ends_u), u in lefts.items():
        for (first_x, starts_x, ends_x_inv), x in rights.items():
            if last_u and last_u == -first_x:
                continue
            for (first_v, starts_v, _), v in rights.items():
                if first_v and first_v in (first_x, -last_u):
                    continue
                triples += 1
                d = abs(seam(ends_u, starts_v) - seam(ends_u, starts_x) - seam(ends_x_inv, starts_v))
                if d > best:
                    best, witness = d, (u, x, v)
    if witness is not None:
        u, x, v = witness
        witness = (u * x, x.inverse() * v)
    return DefectEstimate(value=float(best), witness=witness, pairs_checked=triples)


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


def subordination_fit(evaluated) -> SubordinationFit:
    """Fit the smallest M with |q(g)| <= M * l(g) + M over the triples
    (g, |q(g)|, l(g)) of `evaluated`; ValueError when there are none.

    When q vanishes wherever l does, the natural constant is the slope-only
    fit max |q(g)| / l(g) (so the stable-letter sum against the t-syllable
    length fits M = 1, one unit per syllable); otherwise the affine fit
    max |q(g)| / (l(g) + 1) is returned.  The witness is the first g that
    reaches the affine maximum.
    """
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
    lengths: list,
    g,
    ball,
    ball_cap: int = DEFAULT_BALL_CAP,
) -> AnisotropyCertificate:
    """Emit a certificate iff g lies in the ball, the homogenized value at g
    is nonzero and q is subordinate to the supplied orbit pseudo-length on
    the ball with a positive constant M (M = 0 beside a nonzero value means
    that the ball is too small to show q growing).  `lengths` holds that
    pseudo-length by row: `lengths[i]` is l(ball.elements[i]).  q is
    evaluated once per row.

    The defect is q's analytic bound when it has one, else the exact
    defect of a counting quasi-morphism of w: the seam-class maximum over
    the classes of B(|w| - 1) (`defect_empirical`), whatever the radius of
    `ball`, with that ball enumerated within `ball_cap`.  The caller
    asserts that the pseudo-length comes from a general-type action; the
    conclusion text presumes it.
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
        defect = defect_empirical(q, oracle.enumerate_ball(len(q.counting_word) - 1, max_size=ball_cap).elements)
    evaluated = [(h, abs(q(h)), length) for h, length in zip(ball.elements, lengths, strict=True)]
    fit = subordination_fit(evaluated)
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
