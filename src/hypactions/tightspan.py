"""Injective hulls of finite metric spaces.

Points of the hull are admissible functions f (f(x) + f(y) >= d(x, y)) that
are minimal; minimality is equivalent to f(x) = max_y (d(x, y) - f(y)) at
every x.  The hull carries the sup-metric; a hull point is the tuple of its
values over the space.  Every check here is exact: values and distances are
compared in their own arithmetic, so ints, Fractions and quarter-integer
floats decide each inequality without rounding.
"""

from __future__ import annotations

from .metrics import DeltaEstimate, FiniteMetricSpace, four_point_delta


def sup_distance(f, g):
    """The hull metric: sup_x |f(x) - g(x)|."""
    if len(f) != len(g):
        raise ValueError("functions over different spaces")
    return max(abs(a - b) for a, b in zip(f, g))


def kuratowski_embed(x: int, X: FiniteMetricSpace) -> tuple:
    """The distance function t -> d(x, t); always an extremal point."""
    if not 0 <= x < X.size:
        raise ValueError(f"point index {x} outside the space")
    return tuple(X.rows[x])


def is_admissible(f, X: FiniteMetricSpace) -> bool:
    n = X.size
    for i in range(n):
        if f[i] < 0:
            return False
        for j in range(i, n):
            if f[i] + f[j] < X.rows[i][j]:
                return False
    return True


def is_extremal(f, X: FiniteMetricSpace):
    """(verdict, worst slack) for the fixed-point characterization: f equals
    its conjugate q(f)(x) = max_y (d(x, y) - f(y)), slack exactly 0."""
    n = X.size
    worst = max(abs(f[x] - max(X.rows[x][y] - f[y] for y in range(n))) for x in range(n))
    return worst == 0, worst


def project_to_hull(f, X: FiniteMetricSpace):
    """The hull point below an admissible f, by one sweep of coordinates.

    At each x in order, f(x) drops to max(0, max_{y != x} d(x, y) - f(y)).
    The drop keeps admissibility, and each coordinate already lowered stays
    tight, since later coordinates only go down; so one pass lands on the
    hull (Dress 1984; Lang 2013).  The sweep computes in the arithmetic of
    f and the distances, and the result is checked exactly extremal.
    Returns (tuple of values, coordinate steps); raises ValueError on an
    inadmissible f, or when inexact arithmetic (floats that are not
    dyadic, Fractions mixed with floats) leaves a nonzero slack.
    """
    vals = list(f)
    if not is_admissible(vals, X):
        raise ValueError("input must be admissible: f(x) + f(y) >= d(x, y)")
    rows = X.rows
    n = X.size
    for x in range(n):
        # 0 * f(x) is zero in the arithmetic of f
        vals[x] = max([0 * vals[x], *(rows[x][y] - vals[y] for y in range(n) if y != x)])
    ok, slack = is_extremal(vals, X)
    if not ok:
        raise ValueError(f"projection missed extremality by {slack}: its arithmetic is inexact")
    return tuple(vals), n


def hull_sample_delta(X: FiniteMetricSpace, sample, quadruple_cap: int) -> DeltaEstimate:
    """Exhaustive four-point scan of a hull sample under the sup-metric, within
    `quadruple_cap` ordered quadruples; every member must be exactly extremal."""
    for f in sample:
        ok, slack = is_extremal(f, X)
        if not ok:
            raise ValueError(f"sample member misses extremality by {slack}")
    rows = [[float(sup_distance(f, g)) for g in sample] for f in sample]
    return four_point_delta(FiniteMetricSpace(rows, validate=False), quadruple_cap=quadruple_cap)
