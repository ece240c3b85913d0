# Probing a tree action for isotropy: can every pair of equidistant point
# pairs be matched by a group element up to a uniform constant D?
#
# On the free group the answer is no for small D: pairs pointing in
# incompatible directions (powers of a against mixed words) have no good
# matching, and the probe records them as finite-scale counterevidence.

from hypactions.groups import FreeGroupOracle
from hypactions.loxodromic import isotropy_probe

F2 = FreeGroupOracle(2)
ball = F2.enumerate_ball(3)

for D in (0.0, 1.0, 2.0):
    report = isotropy_probe(ball, D=D, sample_size=25, seed=42)
    print(
        f"D = {D}: matched {report.successes}/{report.pairs_checked} sampled pairs "
        f"(success rate {report.success_rate:.2f})"
    )

report = isotropy_probe(ball, D=1.0, sample_size=25, seed=42)
hard = report.hardest
print(
    f"\nhardest pair: ({hard.x}, {hard.y}) vs ({hard.x2}, {hard.y2}) "
    f"at distance {hard.distance:.0f}"
)
print(f"best matching element {hard.best_g} achieves max displacement {hard.best_constant:.0f}")
