# Injective hulls of finite metric spaces: admissible functions
# f(x) + f(y) >= d(x, y), minimal exactly when f(x) = max_y (d(x,y) - f(y)).
#
# The Kuratowski embedding x -> d(x, .) is an exact isometry into the hull;
# one sweep of coordinates takes any admissible start onto the hull, exactly.

import random
from fractions import Fraction

from hypactions.metrics import FiniteMetricSpace, random_tree_metric
from hypactions.tightspan import (
    hull_sample_delta,
    is_extremal,
    kuratowski_embed,
    project_to_hull,
    sup_distance,
)

X = FiniteMetricSpace([[0, 2, 3], [2, 0, 4], [3, 4, 0]])

print("Kuratowski rows and pairwise sup-distances (= the original metric):")
for i in range(3):
    f = kuratowski_embed(i, X)
    dists = [sup_distance(f, kuratowski_embed(j, X)) for j in range(3)]
    print(f"  iota({i}) = {f},  sup-distances {dists}")

# the sweep lowers f(x) to max(0, max_{y != x} d(x, y) - f(y)), x in order,
# in the arithmetic of the start: an integer start gives integers
f, steps = project_to_hull((3, 5, 4), X)
print(f"\nhull point below (3, 5, 4): {f} after {steps} coordinate steps")

# a start in rationals lands on the tripod center, where every
# admissibility constraint is tight
start = (Fraction(3), Fraction(3, 2), Fraction(7, 2))
center, _ = project_to_hull(start, X)
ok, slack = is_extremal(center, X)
print(f"hull point below (3, 3/2, 7/2): ({', '.join(map(str, center))}), extremal {ok}, slack {slack}")
print(f"tight pairs: ", [(i, j) for i in range(3) for j in range(i + 1, 3)
                          if center[i] + center[j] == X.rows[i][j]])

# hull points over a tree metric are 0-hyperbolic under the sup-metric
rng = random.Random(1)
tree = random_tree_metric(7, rng)
sample = [kuratowski_embed(i, tree) for i in range(tree.size)]
est = hull_sample_delta(tree, sample, quadruple_cap=len(sample) ** 4)  # all of its ordered quadruples
print(f"\nrandom tree metric on 7 points: hull sample delta = {est.delta}")
