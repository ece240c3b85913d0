# Two real embeddings of Q(sqrt2) induce inequivalent actions of
# SL2(Q(sqrt2)) on the hyperbolic plane: the matrix [[x, x^2-1], [1, x]] with
# x = sqrt2 - 1 is elliptic when sqrt2 -> +sqrt2 and loxodromic when
# sqrt2 -> -sqrt2.  All classifications are exact sign tests in the field.

from hypactions.sl2 import (
    RealEmbedding,
    SL2Oracle,
    classify,
    embedding_spectrum_compare,
    lemma_emb_matrix,
    mat2,
    orbit_distance_h2,
    parse_qfe,
    translation_length_h2,
)

plus, minus = RealEmbedding(1), RealEmbedding(-1)

x = parse_qfe("sqrt2-1", 2)
A = lemma_emb_matrix(x)
print(f"A = {A}, trace {A.trace()}")
print(f"under +: {classify(A, plus)};  under -: {classify(A, minus)}")
tau = translation_length_h2(A, minus)
print(f"translation length under -: {tau:.12f} (= 2*arccosh(sqrt2 + 1))")
print(f"tau(A^2) = {translation_length_h2(A * A, minus):.12f} = 2*tau(A)")

# orbit lengths d(i, g i) give a pseudo-length on the group
T = mat2([[1, 1], [0, 1]])
print(f"\nparabolic T: d(i, T i) = {orbit_distance_h2(T, plus):.12f} (= arccosh(3/2))")

# scan the whole word ball: any class mismatch certifies that the two
# translation-length profiles are not Lipschitz equivalent
ball = SL2Oracle(d=2, gens=[A, T], names=["A", "T"]).enumerate_ball(1)
rows, witnesses = embedding_spectrum_compare(ball, plus, minus)
print(f"\nword ball of radius 1: {len(rows)} elements, {len(witnesses)} witnesses")
print(f"{'word':8} {'trace':14} {'class(+)':12} {'class(-)':12} tau(+)    tau(-)")
for r in rows:
    print(
        f"{r['word']:8} {r['trace']:14} {r['class_e1']:12} {r['class_e2']:12} "
        f"{r['tau_e1']:.6f}  {r['tau_e2']:.6f}"
    )
