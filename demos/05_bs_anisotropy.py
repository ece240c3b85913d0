# An anisotropy certificate for BS(2, 3) = <a, t | t^-1 a^2 t = a^3>.
#
# The stable-letter exponent sum is a homomorphism to Z (defect 0) that grows
# linearly along powers of t while staying bounded by the number of
# t-syllables of the Britton normal form.  An unbounded quasi-morphism
# subordinate to the Bass-Serre orbit length certifies that t acts
# loxodromically and is inequivalent to its inverse, so the action is not
# weakly isotropic.

from hypactions.groups import BSOracle
from hypactions.quasimorphism import (
    anisotropy_certificate,
    exponent_sum_qm,
    subordination_fit,
)

bs = BSOracle(2, 3)

# Britton normal forms make the word problem a tuple comparison
g = bs.parse_element("a^2t")
h = bs.parse_element("ta^3")
print(f"a^2 t = {g}, t a^3 = {h}, equal: {g == h}")
print(f"t^-1 a^4 t a^-1 = {bs.parse_element('t^-1a^4ta^-1')}")

ball = bs.enumerate_ball(4)
print(f"|BS(2,3) ball of radius 4| = {len(ball)}")

q = exponent_sum_qm()
print(f"analytic defect bound (a homomorphism): {q.defect_bound}")

t_syllables = [float(x.t_syllable_count()) for x in ball.elements]
fit = subordination_fit([(x, abs(q(x)), l) for x, l in zip(ball.elements, t_syllables)])
print(f"subordination constant M = {fit.M} ({fit.mode} fit)")

cert = anisotropy_certificate(bs, q, t_syllables, bs.parse_element("t"), ball)
print(f"homogenized value at t (exact, q(t) for a homomorphism): {cert.homogenized_value}")
print(cert.conclusion)
