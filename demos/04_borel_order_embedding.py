# The order embedding of prefix sequences into compressed generating sets.
#
# Pi is the space of sequences r with 1 <= r(n) <= n, quasi-ordered by
# sup(r - s) < inf.  Each prefix maps to the generating set with caps
# n_i = 2^(i - r(i)) * N_i; bigger caps mean a more compressed metric, and
# every generator of f(s) has f(r)-length at most 2^sup(r-s).

from itertools import product

from hypactions.compression import (
    BorelMapConfig,
    PiPrefix,
    borel_map_f,
    order_preservation_check,
    qks_compare,
    surrogate_overlap_caps,
)
from hypactions.groups import FreeGroupOracle
from hypactions.loxodromic import build_quasi_axis
from hypactions.words import parse_word

F2 = FreeGroupOracle(2)
words = ["ab", "ab^2", "a^2b", "ab^3"]

# the floor caps N_i come from a finite-scale overlap scan plus a margin;
# distinct axes barely overlap, so small caps suffice
axes = [build_quasi_axis(parse_word(w), 1) for w in words]
N = surrogate_overlap_caps(axes, 0.0, F2.enumerate_ball(2).elements)
print(f"overlap-scan surrogates N_i = {N} (translate ball radius 2, margin 1)")

config = BorelMapConfig(2, words, [1, 1, 1, 1])

r = PiPrefix((1, 2, 3, 4))
s = PiPrefix((1, 1, 1, 1))
print("caps of f(r):", [cap for _, cap in borel_map_f(r, config).families])
print("caps of f(s):", [cap for _, cap in borel_map_f(s, config).families])

cmp = qks_compare(r, s)
print(f"sup(r - s) = {cmp.sup_diff}, symmetric sup |r - s| = {cmp.max_abs_diff}")

rep = order_preservation_check(r, s, config)
print(
    f"k = {rep.k}: checked {rep.generators_checked} generators of f(s); "
    f"max f(r)-length {rep.max_length} <= 2^k = {rep.bound}; "
    f"violations: {len(rep.violations)}"
)

# sweep every pair of length-4 prefixes with small sup-difference
prefixes = [PiPrefix(v) for v in product((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4))]
worst = 0.0
pairs = 0
for rr in prefixes:
    for ss in prefixes:
        k = qks_compare(rr, ss).sup_diff
        if k > 2:
            continue
        pairs += 1
        worst = max(worst, order_preservation_check(rr, ss, config).max_ratio)
print(f"{pairs} prefix pairs with k <= 2: worst length/2^k ratio = {worst}")
