"""Baumslag-Solitar groups BS(m, n) = <a, t | t^-1 a^m t = a^n>.

Elements are kept in a left-greedy Britton normal form

    a^{p_1} t^{e_1} a^{p_2} t^{e_2} ... a^{p_j} t^{e_j} a^{tail}

where the exponent before each t is a canonical residue (mod |m| before t,
mod |n| before t^-1) and no pinch t^-1 a^{km} t or t a^{kn} t^-1 survives.
Two group elements are equal iff their normal forms are identical, so the
word problem is a tuple comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_BS_TOKEN = re.compile(r"([atAT])(?:\^(-?\d+))?")


@dataclass(frozen=True)
class BSElement:
    m: int
    n: int
    pairs: tuple[tuple[int, int], ...]  # (a-exponent, t-sign), left to right
    tail: int  # trailing a-exponent

    def __post_init__(self):
        if self.m == 0 or self.n == 0:
            raise ValueError("BS(m, n) needs nonzero m, n")

    # -- structure ---------------------------------------------------------

    def t_syllable_count(self) -> int:
        """Number of t-letters in the Britton normal form (a pseudo-length)."""
        return len(self.pairs)

    def t_exponent_sum(self) -> int:
        """Image under the homomorphism BS(m, n) -> Z killing a."""
        return sum(eps for _, eps in self.pairs)

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "BSElement") -> "BSElement":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("elements of different BS groups")
        pairs = list(self.pairs)  # reduce only at the seam, see `_britton`
        tail = _britton(pairs, self.tail, other.pairs, self.m, self.n) + other.tail
        return BSElement(self.m, self.n, tuple(pairs), tail)

    def inverse(self) -> "BSElement":
        toks = []
        if self.tail:
            toks.append(("a", -self.tail))
        for exp, eps in reversed(self.pairs):
            toks.append(("t", -eps))
            if exp:
                toks.append(("a", -exp))
        return bs_normalize(toks, self.m, self.n)

    def __pow__(self, k: int) -> "BSElement":
        if k < 0:
            return self.inverse() ** (-k)
        acc = bs_identity(self.m, self.n)
        for _ in range(k):
            acc = acc * self
        return acc

    def sort_key(self):
        return (len(self.pairs), self.pairs, self.tail)

    def __str__(self):
        return format_bs(self)

    def __repr__(self):
        return f"BSElement(BS({self.m},{self.n}), {format_bs(self)!r})"


def bs_identity(m: int, n: int) -> BSElement:
    return BSElement(m, n, (), 0)


def bs_normalize(tokens, m: int, n: int) -> BSElement:
    """Britton-reduce a raw alternating token stream into the normal form.

    tokens: iterable of ('a', k) and ('t', eps) with eps in {+1, -1}
    (('t', k) with |k| > 1 is accepted and unrolled).
    """
    if m == 0 or n == 0:
        raise ValueError("BS(m, n) needs nonzero m, n")
    syllables, acc = [], 0  # (k, eps) for a^k t^eps, the stream's a's merged
    for kind, val in tokens:
        if kind == "a":
            acc += val
        elif kind == "t":
            for _ in range(abs(val)):
                syllables.append((acc, 1 if val > 0 else -1))
                acc = 0
        else:
            raise ValueError(f"bad token kind {kind!r}")
    pairs = []
    tail = _britton(pairs, 0, syllables, m, n) + acc
    return BSElement(m, n, tuple(pairs), tail)


def _britton(pairs, acc, syllables, m, n) -> int:
    """Feed syllables (k, eps), each a^k t^eps, left to right into the word
    a^p_1 t^e_1 ... a^p_j t^e_j a^acc, where `pairs` holds the (p_i, e_i) and
    is extended in place; returns the new trailing exponent.

    A normal form is a fixed point of this loop: its exponents are canonical
    residues, so nothing carries, and no residue 0 sits between opposite
    t-signs, so nothing pinches.  Feeding its syllables to the empty state
    ends in exactly (its pairs, its tail), so x * y may start from x's normal
    form and feed only y's syllables: O(|y| + pinches) steps.
    """
    for exp, eps in syllables:
        acc += exp
        d_in = m if eps > 0 else n  # multiples of d_in cross t^eps leftward
        d_out = n if eps > 0 else m
        r = acc % abs(d_in)
        q = (acc - r) // d_in
        if r == 0 and pairs and pairs[-1][1] == -eps:
            # pinch: t^-eps a^{q*d_in} t^eps collapses to a^{q*d_out}
            acc = pairs.pop()[0] + q * d_out
        else:
            pairs.append((r, eps))
            acc = q * d_out
    return acc


def format_bs(g: BSElement) -> str:
    parts = []
    for exp, eps in g.pairs:
        if exp:
            parts.append("a" if exp == 1 else f"a^{exp}")
        parts.append("t" if eps == 1 else "t^-1")
    if g.tail:
        parts.append("a" if g.tail == 1 else f"a^{g.tail}")
    return "".join(parts) if parts else "1"


def parse_bs(text: str, m: int, n: int) -> BSElement:
    """Parse a word in a, t (uppercase = inverse) into normal form."""
    text = text.strip().replace(" ", "")
    if text in ("", "1"):
        return bs_identity(m, n)
    pos = 0
    toks = []
    for match in _BS_TOKEN.finditer(text):
        if match.start() != pos:
            raise ValueError(f"cannot parse BS word {text!r} at position {pos}")
        pos = match.end()
        char, exp = match.group(1), match.group(2)
        exp = 1 if exp is None else int(exp)
        if char.isupper():
            exp = -exp
        toks.append((char.lower(), exp))
    if pos != len(text):
        raise ValueError(f"cannot parse BS word {text!r} at position {pos}")
    return bs_normalize(toks, m, n)
