# Coning a Cayley ball off along the complement of an axis neighborhood:
# vertices joined by a geodesic that avoids the closed A-neighborhood of the
# orbit <a> become adjacent, which crushes the metric far from the axis while
# the axis itself stays undistorted.

import numpy as np

from hypactions.groups import FreeGroupOracle
from hypactions.metrics import cone_off, graph_metric_matrix, induced_metric
from hypactions.words import parse_word

F2 = FreeGroupOracle(2)
ball = F2.enumerate_ball(4)
a = parse_word("a")
orbit = [a**k for k in range(-4, 5)]

res = cone_off(ball, orbit, A=1)
D0 = graph_metric_matrix(ball)

# the coned metric: shortest paths once the new edges join the ball's graph
n = len(ball)
coned_adj = D0 == 1
x, y = res.new_edges.T  # the m new edges as two columns of vertex indices
coned_adj[x, y] = coned_adj[y, x] = True
D1 = induced_metric(coned_adj, np.ones(n, bool))

print(f"ball: {len(ball)} vertices; orbit <a> inside: {len(orbit)} points")
print(f"vertices within distance 1 of the orbit: {len(res.forbidden)}")
print(f"new edges: {len(res.new_edges)}; warnings: {res.warnings}")

shrunk = int(np.sum(np.triu(D1 < D0, 1)))
print(f"vertex pairs strictly closer after coning: {shrunk}")

# tree geodesics through the orbit survive; those avoiding it collapse
pairs = [("b^2a", "b^2a^-1"), ("b^2ab", "b^3a^-1"), ("b^2", "b^-2"), ("a^3", "a^-3")]
print(f"{'pair':24} before  after")
for left, right in pairs:
    i, j = ball.index[parse_word(left)], ball.index[parse_word(right)]
    print(f"{left:>10} , {right:<10}  {D0[i, j]:>5.0f}  {D1[i, j]:>5.0f}")
far = np.triu(D0 - D1, 1)
i, j = np.unravel_index(int(np.argmax(far)), far.shape)
left, right = F2.format_element(ball.elements[i]), F2.format_element(ball.elements[j])
print(f"largest shrink: {left} , {right}: {D0[i, j]:.0f} -> {D1[i, j]:.0f}")

# the axis is untouched: distances between orbit points never change
axis_ok = all(
    D1[ball.index[a**i], ball.index[a**j]] == D0[ball.index[a**i], ball.index[a**j]]
    for i in range(-4, 5)
    for j in range(-4, 5)
)
print(f"orbit distances unchanged: {axis_ok}")
