"""Exact SL2 over Q(sqrt(d)): Mobius action, trace classification, lengths.

A field element is stored in integer coordinates, (p + q*sqrt(d)) / den
with den > 0 in lowest terms, so products and sums are integer arithmetic
(no gcd at all while den is 1, as it is on balls of integral matrices).  All
classification decisions (elliptic / parabolic / loxodromic) are made by
exact sign tests in the quadratic field; floating point enters only when a
transcendental output (arccosh, a hyperbolic distance) is requested, and then
through dyadic intervals that are tightened until the requested tolerance is
met.  The basepoint of the upper half-plane is fixed at i.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotLoxodromic
from .groups import GroupOracle

# bits of the first dyadic bracket; refinement doubles it
START_BITS = 64
# the width within which the H^2 lengths below are returned
H2_TOL = 1e-12


@functools.cache
def _is_square_free(d: int) -> bool:
    """Is d >= 2 free of square factors?

    Trial division strips every prime p <= d^(1/3), failing on a repeated
    one.  What remains has only prime factors above d^(1/3), so at most two
    of them, and is square-free exactly when it is not a perfect square.
    """
    if d < 2:
        return False
    m = d
    k = 2
    while k * k * k <= d:
        if m % k == 0:
            m //= k
            if m % k == 0:
                return False
        k += 1
    return m == 1 or math.isqrt(m) ** 2 != m


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _ratio_text(n: int, den: int) -> str:
    """n/den as `str(Fraction(n, den))` writes it."""
    return str(n) if den == 1 else str(Fraction(n, den))


def _rational(text: str) -> Fraction:
    """An integer, fraction or decimal as an exact rational; a zero
    denominator is a ValueError, like any other unreadable number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class QuadFieldElement:
    """(p + q*sqrt(d)) / den with integers p, q and den > 0 in lowest terms
    and a fixed square-free d >= 2.  A value: never modified once built.

    `QuadFieldElement(a, b, d)` builds a + b*sqrt(d) from rationals a, b;
    `a` and `b` read them back as Fractions.
    """

    __slots__ = ("p", "q", "den", "d")

    def __init__(self, a, b, d: int):
        a, b = Fraction(a), Fraction(b)
        if not _is_square_free(d):
            raise ValueError(f"d must be square-free and >= 2, got {d}")
        # both fractions are in lowest terms, so over their least common
        # denominator no prime divides p, q and den at once
        den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
        self.p = a.numerator * (den // a.denominator)
        self.q = b.numerator * (den // b.denominator)
        self.den = den
        self.d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.den)

    def __eq__(self, other):
        if not isinstance(other, QuadFieldElement):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.den == other.den and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.q, self.den, self.d))

    def __add__(self, other):
        o = self._coerce(other)
        return _element(self.p * o.den + o.p * self.den, self.q * o.den + o.q * self.den, self.den * o.den, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        return _element(self.p * o.den - o.p * self.den, self.q * o.den - o.q * self.den, self.den * o.den, self.d)

    def __neg__(self):
        return _element(-self.p, -self.q, self.den, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        return _element(self.p * o.p + self.q * o.q * self.d, self.p * o.q + self.q * o.p, self.den * o.den, self.d)

    def __truediv__(self, other):
        # x / y = x * conj(y) * y.den / norm, with y * conj(y) = norm / y.den^2
        o = self._coerce(other)
        norm = o.p * o.p - o.q * o.q * o.d
        if norm == 0:
            raise ZeroDivisionError("division by zero field element")
        p = (self.p * o.p - self.q * o.q * self.d) * o.den
        q = (self.q * o.p - self.p * o.q) * o.den
        den = self.den * norm
        if den < 0:
            p, q, den = -p, -q, -den
        return _element(p, q, den, self.d)

    def _coerce(self, other):
        if isinstance(other, QuadFieldElement):
            if self.d != other.d:
                raise ValueError("elements of different quadratic fields")
            return other
        r = Fraction(other)
        return _element(r.numerator, 0, r.denominator, self.d)

    def sign_under(self, embedding: "RealEmbedding") -> int:
        """Exact sign of the real number (p + q*embedding(sqrt(d))) / den."""
        p, q = self.p, self.q * embedding.sign
        if q == 0:
            return _sign(p)
        if p == 0:
            return _sign(q)
        sp, sq = _sign(p), _sign(q)
        if sp == sq:
            return sp
        # opposite signs: |p| vs |q|*sqrt(d), squared comparison is exact
        lhs, rhs = p * p, q * q * self.d
        if lhs == rhs:
            return 0
        return sp if lhs > rhs else sq

    def interval_under(self, embedding: "RealEmbedding", bits: int) -> tuple[Fraction, Fraction]:
        """Dyadic bracket of width b * 2^-bits around the embedded value."""
        scale = 1 << bits
        root_lo = math.isqrt(self.d * scale * scale)  # sqrt(d) lies in [root_lo, root_lo + 1] / scale
        c = self.q * embedding.sign
        lo, hi = (root_lo, root_lo + 1) if c >= 0 else (root_lo + 1, root_lo)
        den = self.den * scale
        return Fraction(self.p * scale + c * lo, den), Fraction(self.p * scale + c * hi, den)

    def __str__(self):
        if self.q == 0:
            return _ratio_text(self.p, self.den)
        coef = abs(self.q)
        root = f"sqrt{self.d}" if coef == self.den else f"{_ratio_text(coef, self.den)}*sqrt{self.d}"
        if self.p == 0:
            return root if self.q > 0 else f"-{root}"
        return f"{_ratio_text(self.p, self.den)}{'-' if self.q < 0 else '+'}{root}"

    def __repr__(self):
        return f"QuadFieldElement({self})"


def _element(p: int, q: int, den: int, d: int) -> QuadFieldElement:
    """(p + q*sqrt(d)) / den for den > 0, reduced to lowest terms; d is
    already known to be square-free."""
    if den != 1:
        g = math.gcd(p, q, den)
        if g != 1:
            p, q, den = p // g, q // g, den // g
    x = object.__new__(QuadFieldElement)
    x.p, x.q, x.den, x.d = p, q, den, d
    return x


def qfe(a, b=0, d=2) -> QuadFieldElement:
    return QuadFieldElement(a, b, d)


_QFE_TERM = re.compile(r"([+-]?)((?:\d+(?:/\d+)?\*?)?)(sqrt\(?(\d+)\)?)?")


def parse_qfe(text: str, d: int) -> QuadFieldElement:
    """Parse 'sqrt2-1', '-1/2+3/4*sqrt(2)', '5/3' into an exact field element."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty field element")
    a = Fraction(0)
    b = Fraction(0)
    pos = 0
    while pos < len(text):
        match = _QFE_TERM.match(text, pos)
        if match is None or match.end() == pos:
            raise ValueError(f"cannot parse field element {text!r} at position {pos}")
        sign = -1 if match.group(1) == "-" else 1
        coef_text = match.group(2).rstrip("*")
        coef = _rational(coef_text) if coef_text else Fraction(1)
        if match.group(3):
            root_d = int(match.group(4))
            if root_d != d:
                raise ValueError(f"sqrt{root_d} does not live in Q(sqrt{d})")
            b += sign * coef
        else:
            if not coef_text:
                raise ValueError(f"cannot parse field element {text!r} at position {pos}")
            a += sign * coef
        pos = match.end()
    return QuadFieldElement(a, b, d)


@dataclass(frozen=True)
class RealEmbedding:
    """The field embedding determined by sqrt(d) |-> sign * sqrt(d)."""

    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("embedding sign must be +1 or -1")

    def label(self) -> str:
        return "+" if self.sign == 1 else "-"


@dataclass(frozen=True)
class Mat2:
    """A determinant-one 2x2 matrix over Q(sqrt(d))."""

    a: QuadFieldElement
    b: QuadFieldElement
    c: QuadFieldElement
    d: QuadFieldElement

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not (det.p == 1 and det.q == 0 and det.den == 1):
            raise ValueError(f"determinant must be exactly 1, got {det}")

    @property
    def field_d(self) -> int:
        return self.a.d

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __pow__(self, k: int) -> "Mat2":
        if k < 0:
            return self.inverse() ** (-k)
        result = mat2_identity(self.field_d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def trace(self) -> QuadFieldElement:
        return self.a + self.d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def sort_key(self):
        # ints compare and hash exactly as the equal Fractions do, so the
        # order is that of the (a, b) pairs
        return tuple((e.p, e.q) if e.den == 1 else (e.a, e.b) for e in self.entries())

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def mat2_identity(d: int = 2) -> Mat2:
    one, zero = qfe(1, 0, d), qfe(0, 0, d)
    return Mat2(one, zero, zero, one)


def mat2(rows, d: int = 2) -> Mat2:
    """Build from a 2x2 array of ints / Fractions / QuadFieldElements."""
    (a, b), (c, dd) = rows
    conv = lambda x: x if isinstance(x, QuadFieldElement) else qfe(x, 0, d)
    return Mat2(conv(a), conv(b), conv(c), conv(dd))


def lemma_emb_matrix(x: QuadFieldElement) -> Mat2:
    """[[x, x^2 - 1], [1, x]]; the determinant is 1 for every x."""
    one = qfe(1, 0, x.d)
    return Mat2(x, x * x - one, one, x)


def classify(A: Mat2, embedding: RealEmbedding) -> str:
    """'elliptic' | 'parabolic' | 'loxodromic' by the exact sign of tr^2 - 4."""
    t = A.trace()
    disc = t * t - 4
    s = disc.sign_under(embedding)
    if s < 0:
        return "elliptic"
    if s == 0:
        return "parabolic"
    return "loxodromic"


def _acosh_interval(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    # pad by a few ulps to keep the bracket honest after float rounding
    flo = math.acosh(max(1.0, float(lo)))
    fhi = math.acosh(max(1.0, float(hi)))
    pad = 8 * math.ulp(max(fhi, 1.0))
    return max(0.0, flo - pad), fhi + pad


def _refine_acosh(value: QuadFieldElement, embedding: RealEmbedding, tol: float) -> float:
    if value.q == 0 and value.p == value.den:
        return 0.0
    bits = START_BITS
    while True:
        lo, hi = value.interval_under(embedding, bits)
        if lo >= 1:
            alo, ahi = _acosh_interval(lo, hi)
            if ahi - alo <= tol or bits >= 4096:
                return (alo + ahi) / 2
        elif bits >= 4096:
            # exact sign test already guaranteed value > 1; bracket is stuck at
            # the float boundary, return the closest representable result
            return math.acosh(max(1.0, float((lo + hi) / 2)))
        bits *= 2


def translation_length_h2(A: Mat2, embedding: RealEmbedding) -> float:
    """2*arccosh(|tr|/2) for loxodromic A, the stable translation length on
    H^2, to within H2_TOL."""
    if classify(A, embedding) != "loxodromic":
        raise NotLoxodromic(f"matrix {A} is not loxodromic under {embedding.label()}")
    t = A.trace()
    if t.sign_under(embedding) < 0:
        t = -t
    half = _element(t.p, t.q, 2 * t.den, t.d)
    return 2.0 * _refine_acosh(half, embedding, H2_TOL / 2)


def orbit_distance_h2(A: Mat2, embedding: RealEmbedding) -> float:
    """d_{H^2}(i, A i) to within H2_TOL, from an exact field expression for cosh d."""
    a, b, c, d = A.entries()
    # A*i = u + v*i with u = (ac + bd)/(c^2 + d^2), v = 1/(c^2 + d^2)
    denom = c * c + d * d
    u = (a * c + b * d) / denom
    v = QuadFieldElement(Fraction(1), Fraction(0), A.field_d) / denom
    one = QuadFieldElement(Fraction(1), Fraction(0), A.field_d)
    two = QuadFieldElement(Fraction(2), Fraction(0), A.field_d)
    cosh_d = one + (u * u + (v - one) * (v - one)) / (two * v)
    return _refine_acosh(cosh_d, embedding, H2_TOL)


class SL2Oracle(GroupOracle):
    """Word balls in a finitely generated subgroup of SL2(Q(sqrt(d))).

    The default generating set is the standard SL2(Z) pair; experiments add
    matrices with irrational entries on top of it.
    """

    def __init__(self, d: int = 2, gens: list[Mat2] | None = None, names: list[str] | None = None):
        self.d = d
        if gens is None:
            gens = [mat2([[1, 1], [0, 1]], d), mat2([[0, -1], [1, 0]], d)]
            names = ["T", "S"]
        self.gens = gens
        self.names = names or [f"g{i}" for i in range(len(gens))]

    def identity(self):
        return mat2_identity(self.d)

    def generators(self):
        return list(self.gens)

    def format_element(self, x):
        for g, name in zip(self.gens, self.names):
            if x == g:
                return name
            if x == g.inverse():
                return f"{name}^-1"
        return str(x)

    def __repr__(self):
        return f"SL2Oracle(d={self.d}, gens={len(self.gens)})"


def embedding_spectrum_compare(ball, e1: RealEmbedding, e2: RealEmbedding):
    """Classify every element of a word ball of matrices under both embeddings.

    Returns (rows, witnesses): one row per ball element with its word, exact
    trace, classes and translation lengths under e1 / e2; witnesses lists the
    rows whose class differs, any one of which certifies that the two induced
    translation-length profiles are not Lipschitz equivalent.
    """
    rows = []
    witnesses = []
    spectrum = {}  # trace -> its row fields: `classify` and `translation_length_h2` read only the trace
    for word, A in zip(ball.words, ball.elements):
        t = A.trace()
        if t not in spectrum:
            c1, c2 = classify(A, e1), classify(A, e2)
            spectrum[t] = (str(t), c1, c2,
                           translation_length_h2(A, e1) if c1 == "loxodromic" else 0.0,
                           translation_length_h2(A, e2) if c2 == "loxodromic" else 0.0)
        trace, c1, c2, t1, t2 = spectrum[t]
        row = {
            "word": word,
            "trace": trace,
            "class_e1": c1,
            "class_e2": c2,
            "tau_e1": t1,
            "tau_e2": t2,
        }
        rows.append(row)
        if c1 != c2:
            witnesses.append(row)
    return rows, witnesses
