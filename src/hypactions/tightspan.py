"""Injective hulls of finite metric spaces.

Points of the hull are admissible functions f (f(x) + f(y) >= d(x, y)) that
are minimal; minimality is equivalent to f(x) = max_y (d(x, y) - f(y)) at
every x.  The hull carries the sup-metric; a hull point is the tuple of its
values over the space.  The iterative projector works on the float64
distance matrix; `minimal_below_exact` keeps rational inputs exact.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import NoConvergence
from .metrics import DeltaEstimate, FiniteMetricSpace, four_point_delta

MAX_ITER = 10_000  # `project_to_hull` gives up after this many averaging steps


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


def is_admissible(f, X: FiniteMetricSpace, tol=0) -> bool:
    n = X.size
    for i in range(n):
        if f[i] < -tol:
            return False
        for j in range(i, n):
            if f[i] + f[j] < X.rows[i][j] - tol:
                return False
    return True


def is_extremal(f, X: FiniteMetricSpace, tol=1e-9):
    """(verdict, worst slack) for the fixed-point characterization: f equals
    its conjugate q(f)(x) = max_y (d(x, y) - f(y))."""
    n = X.size
    worst = max(abs(f[x] - max(X.rows[x][y] - f[y] for y in range(n))) for x in range(n))
    return worst <= tol, worst


def project_to_hull(f, X: FiniteMetricSpace, tol: float = 1e-9):
    """Drive an admissible function to the hull by averaging with its conjugate.

    g <- (g + q(g))/2 decreases pointwise on admissible inputs and preserves
    admissibility, so the slack is monotone; stops when it drops below tol.
    The steps run on the float64 matrix `X.as_array()`: each entry is the
    float of the exact distance, so every step rounds as the same
    subtraction, maximum and average over Python floats would.
    Returns (tuple of values, iterations); raises NoConvergence when the
    slack is still above tol after MAX_ITER steps.
    """
    vals = tuple(map(float, f))
    if not is_admissible(vals, X, tol=1e-9):
        raise ValueError("input must be admissible: f(x) + f(y) >= d(x, y)")
    D = X.as_array()
    v = np.array(vals, dtype=np.float64)
    for it in range(MAX_ITER + 1):
        q = (D - v).max(axis=1)
        slack = np.abs(v - q).max()
        if slack <= tol:
            return tuple(v.tolist()), it
        v = (v + q) / 2.0
    raise NoConvergence(f"projection did not reach slack {tol} in {MAX_ITER} iterations")


def minimal_below_exact(f, X: FiniteMetricSpace) -> tuple:
    """Exact extremal function below an admissible f (rational arithmetic).

    One sweep of coordinate minimization lands on the hull: lowering a
    coordinate to its binding constraint keeps admissibility, and later sweeps
    can only confirm the bound.  Intended for small rational spaces where the
    float projector's tolerance is unwanted.
    """
    vals = list(map(Fraction, f))
    if not is_admissible(vals, X):
        raise ValueError("input must be admissible: f(x) + f(y) >= d(x, y)")
    rows = X.rows
    n = X.size
    for x in range(n):
        floor = max((rows[x][y] - vals[y] for y in range(n) if y != x), default=0)
        vals[x] = max(floor, 0)
    ok, slack = is_extremal(vals, X, tol=0)
    if not ok:
        raise AssertionError(f"exact sweep missed extremality by {slack}")
    return tuple(vals)


def hull_sample_delta(X: FiniteMetricSpace, sample, quadruple_cap: int) -> DeltaEstimate:
    """Exhaustive four-point scan of a hull sample under the sup-metric, within
    `quadruple_cap` ordered quadruples; every member must be extremal within
    1e-9."""
    for f in sample:
        ok, slack = is_extremal(f, X)
        if not ok:
            raise ValueError(f"sample member misses extremality by {slack}")
    rows = [[float(sup_distance(f, g)) for g in sample] for f in sample]
    return four_point_delta(FiniteMetricSpace(rows, validate=False), quadruple_cap=quadruple_cap)
