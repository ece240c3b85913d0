# Translation lengths: horizon estimates, the exact free-group value, and
# how an enlarged generating set compresses them.
#
# In a free group |g^n| = n*tau + (|g| - tau) with tau the cyclically reduced
# length, so the ratios |g^n|/n decrease to tau like c/n.

from hypactions.groups import FreeGroupOracle
from hypactions.loxodromic import (
    build_quasi_axis,
    compression_function,
    translation_length_estimate,
    translation_length_exact,
)
from hypactions.words import parse_word

F2 = FreeGroupOracle(2)
word_len = lambda g: float(len(g))

g = parse_word("aba^-1")
est = translation_length_estimate(g, word_len, horizon=6)
print(f"g = {g}: ratios |g^n|/n = {est.trace}")
print(f"certified upper bound {est.upper}, exact value {translation_length_exact(g)}")

# conjugation cannot change the translation length
for c in ("b", "ab", "a^2b^-1"):
    conj = g.conjugate_by(parse_word(c))
    print(f"tau({conj}) = {translation_length_exact(conj)}")

# the standard quasi-axis of ab through the identity, three periods wide
axis = build_quasi_axis(parse_word("ab"), window=3)
print("axis of ab:", " ".join(str(p) for p in axis.points()))

# declaring ab a generator halves every (ab)-power's length: ratio 1/2
extra = F2.symmetrize([parse_word("a"), parse_word("b"), parse_word("ab")])
ball = F2.enumerate_ball(6, gens=extra)
compressed_len = lambda h: float(ball.length[h])
comp = compression_function(parse_word("ab"), compressed_len, word_len, horizon=3)
print(f"compression of tau(ab) after adding 'ab' to the generators: {comp.ratio}")
