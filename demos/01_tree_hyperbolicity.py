# Word metrics on free-group balls and the four-point hyperbolicity test.
#
# The Cayley graph of a free group is a tree, so the Gromov-product defect
# min{(x,y)_t, (y,z)_t} - (x,z)_t is never positive: the estimator returns
# exactly 0.  A graph with a fat cycle shows a positive delta for contrast.

from hypactions.groups import FreeGroupOracle
from hypactions.metrics import (
    FiniteMetricSpace,
    four_point_delta,
    free_ball_distance_matrix,
    gromov_product,
)
from hypactions.words import parse_word, tree_distance

F2 = FreeGroupOracle(2)

ball = F2.enumerate_ball(3)
print(f"|B(3)| = {len(ball)} elements, spheres {[ball.lengths.count(r) for r in range(4)]}")

# Gromov products measure shared prefixes in the tree
dist = lambda x, y: float(tree_distance(x, y))
x, y, z = parse_word("a^2"), parse_word("ab"), F2.identity()
print(f"(a^2, ab)_1 = {gromov_product(dist, x, y, z)}  (their common prefix is 'a')")

D = free_ball_distance_matrix(ball)
est = four_point_delta(D, mode="exhaustive")
print(f"exhaustive scan of {est.quadruples_checked} quadruples: delta = {est.delta}")

# a 6-cycle is not 0-hyperbolic: opposite points are distance 3 apart
cycle = FiniteMetricSpace(
    [[min((i - j) % 6, (j - i) % 6) for j in range(6)] for i in range(6)]
)
est = four_point_delta(cycle)
x, y, z, t = est.witness
print(f"6-cycle: delta = {est.delta} with witness quadruple {est.witness}")

# sampled mode scales to bigger balls and is reproducible given the seed
ball6 = F2.enumerate_ball(6)
est = four_point_delta(
    free_ball_distance_matrix(ball6), mode="sampled", count=200_000, seed=0
)
print(f"radius-6 ball ({len(ball6)} points), 2*10^5 sampled quadruples: delta = {est.delta}")
