# Injective hulls of finite metric spaces: admissible functions
# f(x) + f(y) >= d(x, y), minimal exactly when f(x) = max_y (d(x,y) - f(y)).
#
# The Kuratowski embedding x -> d(x, .) is an exact isometry into the hull;
# an averaged conjugation drives any admissible start onto the hull.

import random

from hypactions.metrics import FiniteMetricSpace, random_tree_metric
from hypactions.tightspan import (
    hull_sample_delta,
    is_extremal,
    kuratowski_embed,
    minimal_below_exact,
    project_to_hull,
    sup_distance,
)

X = FiniteMetricSpace([[0, 2, 3], [2, 0, 4], [3, 4, 0]])

print("Kuratowski rows and pairwise sup-distances (= the original metric):")
for i in range(3):
    f = kuratowski_embed(i, X)
    dists = [sup_distance(f, kuratowski_embed(j, X)) for j in range(3)]
    print(f"  iota({i}) = {f},  sup-distances {dists}")

# the tripod center: every admissibility constraint is tight
center = minimal_below_exact((3, 5, 4), X)
print(f"\nexact extremal point below (3, 5, 4): {center}")
print(f"tight pairs: ", [(i, j) for i in range(3) for j in range(i + 1, 3)
                          if center[i] + center[j] == X.rows[i][j]])

start = (3.0, 5.0, 4.0)
f, iterations = project_to_hull(start, X, tol=1e-9)
ok, slack = is_extremal(f, X)
print(f"float projection of {start}: {tuple(round(v, 6) for v in f)}"
      f" after {iterations} iterations, slack {slack:.2e}")

# hull points over a tree metric are 0-hyperbolic under the sup-metric
rng = random.Random(1)
tree = random_tree_metric(7, rng)
sample = [kuratowski_embed(i, tree) for i in range(tree.size)]
est = hull_sample_delta(tree, sample, quadruple_cap=len(sample) ** 4)  # all of its ordered quadruples
print(f"\nrandom tree metric on 7 points: hull sample delta = {est.delta}")
