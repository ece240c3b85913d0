# Compressed generating sets: adding all subwords of w^(+-n) to the alphabet
# shrinks distances along the axis of w at rate ~1/n, and the exact lengths
# obey ceil(k/n) >= |w^k|_W >= alpha*k/n - 2.

from hypactions.compression import (
    CompressedGenSet,
    compressed_word_length,
    make_bf_family,
    overlap_scan,
    subword_membership,
    verify_length_bounds,
)
from hypactions.groups import FreeGroupOracle
from hypactions.words import parse_word

F2 = FreeGroupOracle(2)
w = parse_word

# subwords are taken in the written word: ba sits inside abab but not in ab
print("ba in S(ab, 2):", subword_membership(w("ba"), w("ab"), 2))
print("ba in S(ab, 1):", subword_membership(w("ba"), w("ab"), 1))

W = CompressedGenSet(2, [("ab^3", 2), ("ab^9", 3)])
print(f"\n{W!r}")
print(f"{len(W.generators())} generators, longest jump {max(map(len, W.jump_table()))} letters")

for j, (word, cap) in enumerate(W.families):
    lengths = [compressed_word_length(word, W, power=k) for k in range(1, 13)]
    ceilings = [-(-k // cap) for k in range(1, 13)]
    print(f"family {j} (w = {word}, cap {cap}):")
    print(f"  |w^k|_W  = {lengths}")
    print(f"  ceil(k/n) = {ceilings}")

rep = verify_length_bounds(1, 12, W, alpha=1 / 2000)
print(
    f"\nbounds at (j=1, k=12): exact {rep.exact_length} <= {rep.upper_bound}, "
    f"fitted alpha {rep.fitted_alpha:.3f} vs supplied {rep.alpha}"
)

# an exponentially separated family f1 * f2^(3^n): distinct members' axes
# overlap in a bounded window, the self-overlap fills it
fam = make_bf_family(w("a"), w("b"), count=2)
print(f"\nfamily members: {[str(g) for g in fam.members]}, axis constants K={fam.K}, L={fam.L}")
ball = F2.enumerate_ball(3)
cross = overlap_scan(fam.axes[0], fam.axes[1], 0.0, ball.elements)
self_scan = overlap_scan(fam.axes[0], fam.axes[0], 0.0, [F2.identity()])
print(f"cross overlap diameter {cross}, self overlap {self_scan}")
