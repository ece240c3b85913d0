"""Freely reduced words over a ranked alphabet.

Words are stored as tuples of nonzero "signed letters": the generator with
index i is encoded as i + 1 and its inverse as -(i + 1).  The empty tuple is
the identity.  All public constructors reduce; internal operations preserve
reducedness, so equality of group elements is equality of tuples.
"""

from __future__ import annotations

import re

_ALPHA = "abcdefghijklmnopqrstuvwxyz"
_TOKEN = re.compile(r"(x\d+|[a-zA-Z])(?:\^(-?\d+))?")


def _reduce(seq):
    out = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _concat(a, b):
    # both inputs reduced: cancellation happens only at the seam
    i, j = len(a), 0
    nb = len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


class FreeWord:
    """A freely reduced word; the universal element representation for F_k."""

    __slots__ = ("signed", "_hash")

    def __init__(self, letters=()):
        seq = []
        for x in letters:
            if not isinstance(x, int) or x == 0:
                raise ValueError(f"bad letter {x!r}")
            seq.append(x)
        object.__setattr__(self, "signed", _reduce(seq))
        object.__setattr__(self, "_hash", hash(self.signed))

    @classmethod
    def _raw(cls, signed):
        # caller guarantees `signed` is already reduced
        w = object.__new__(cls)
        object.__setattr__(w, "signed", signed)
        object.__setattr__(w, "_hash", hash(signed))
        return w

    @classmethod
    def identity(cls) -> "FreeWord":
        return _IDENTITY

    @classmethod
    def generator(cls, index: int, sign: int = 1) -> "FreeWord":
        return cls._raw((sign * (index + 1),))

    def __len__(self):
        return len(self.signed)

    def __bool__(self):
        return bool(self.signed)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.signed == other.signed

    def __hash__(self):
        return self._hash

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord._raw(_concat(self.signed, other.signed))

    def inverse(self) -> "FreeWord":
        return FreeWord._raw(tuple(-x for x in reversed(self.signed)))

    def sort_key(self):
        """Shortlex order: length first, then the signed letters."""
        return (len(self.signed), self.signed)

    def __pow__(self, n: int) -> "FreeWord":
        if n < 0:
            return self.inverse() ** (-n)
        result = _IDENTITY.signed
        base = self.signed
        while n:
            if n & 1:
                result = _concat(result, base)
            base = _concat(base, base)
            n >>= 1
        return FreeWord._raw(result)

    def conjugate_by(self, c: "FreeWord") -> "FreeWord":
        return c * self * c.inverse()

    def is_cyclically_reduced(self) -> bool:
        s = self.signed
        return len(s) < 2 or s[0] != -s[-1]

    def __repr__(self):
        return f"FreeWord({format_word(self)!r})"

    def __str__(self):
        return format_word(self)


_IDENTITY = FreeWord()


def generator_name(index: int) -> str:
    if index < len(_ALPHA):
        return _ALPHA[index]
    return f"x{index}"


def format_word(w: FreeWord) -> str:
    """Render with run-length exponents, e.g. a*b*b*b*a^-1 -> 'ab^3a^-1'."""
    s = w.signed
    if not s:
        return "1"
    parts = []
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        name = generator_name(abs(s[i]) - 1)
        exp = (j - i) * (1 if s[i] > 0 else -1)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return "".join(parts)


def parse_word(text: str, rank: int | None = None) -> FreeWord:
    """Parse 'ab^3a^-1' (uppercase letters are inverses: 'aB' == 'ab^-1').

    Generators from index 26 on are read as `generator_name` writes them:
    'x26', 'x27^-2', ...
    """
    text = text.strip().replace(" ", "")
    if text in ("", "1"):
        return FreeWord.identity()
    pos = 0
    letters: list[int] = []
    for match in _TOKEN.finditer(text):
        if match.start() != pos:
            raise ValueError(f"cannot parse word {text!r} at position {pos}")
        pos = match.end()
        name, exp = match.group(1), match.group(2)
        exp = 1 if exp is None else int(exp)
        if len(name) > 1:
            index = int(name[1:])
            if generator_name(index) != name:  # x0 ... x25 are the letters, x027 is no name
                raise ValueError(f"cannot parse word {text!r} at position {match.start()}")
        else:
            index = _ALPHA.index(name.lower())
            if name.isupper():
                exp = -exp
        if rank is not None and index >= rank:
            raise ValueError(f"generator {name!r} exceeds rank {rank}")
        letter = (index + 1) * (1 if exp > 0 else -1)
        letters.extend([letter] * abs(exp))
    if pos != len(text):
        raise ValueError(f"cannot parse word {text!r} at position {pos}")
    return FreeWord(letters)


def common_prefix_len(u: FreeWord, v: FreeWord) -> int:
    a, b = u.signed, v.signed
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def tree_distance(u: FreeWord, v: FreeWord) -> int:
    """Word metric of the free group: d(u, v) = |u^-1 v|."""
    return len(u) + len(v) - 2 * common_prefix_len(u, v)


def count_occurrences(g: FreeWord, pattern: FreeWord) -> int:
    """Occurrences of `pattern` inside the reduced word of g, overlaps allowed."""
    s, p = g.signed, pattern.signed
    if not p or len(p) > len(s):
        return 0
    return sum(1 for i in range(len(s) - len(p) + 1) if s[i : i + len(p)] == p)
