"""Scalar geometric primitives shared by the graph and validation layers.

Everything operates on plain coordinate vectors of any ambient dimension
D >= 2, in double precision.  Infinite curvature is represented by
``math.inf``, which compares the way the definitions need it to:
``inf <= k`` is false for every finite k.
"""

import math

import numpy as np

__all__ = [
    "discrete_curvature",
    "turn_curvature",
    "lexicographic_rank",
    "chord_lower_bound",
]


def _as_vector(v, name):
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d coordinate vector")
    return arr


def _dot(a, b):
    """Sum of coordinate products, added in coordinate order; the
    coordinates are floats or equally long arrays."""
    s = a[0] * b[0]
    for k in range(1, len(a)):
        s += a[k] * b[k]
    return s


def _circumcurvature(x, y, z):
    """The curvature formula on coordinate lists; None if two of the
    points coincide.

    Acute turns are sent to ``inf`` first, before the costlier terms; a
    triple with x == z turns acutely too, and falls through to the
    coincidence check.
    """
    if x > z:
        x, z = z, x  # canonical endpoint order: bitwise symmetric in x, z
    a = [p - q for p, q in zip(x, y)]
    b = [p - q for p, q in zip(z, y)]
    dot = _dot(a, b)
    if dot > 0.0 and x != z:
        return math.inf
    c = [p - q for p, q in zip(z, x)]
    na2 = _dot(a, a)
    nb = math.sqrt(_dot(b, b))
    nc = math.sqrt(_dot(c, c))
    if na2 == 0.0 or nb == 0.0 or nc == 0.0:
        return None
    if dot > 0.0:
        return math.inf
    # 2 * |a ^ b| / (|a| |b| |z - x|), with the wedge norm expanded through
    # the rejection of b from a so the |a| factors cancel.
    t = dot / na2
    rej = [p - t * q for p, q in zip(b, a)]
    return 2.0 * math.sqrt(_dot(rej, rej)) / (nb * nc)


def turn_curvature(x, y, z) -> float:
    """:func:`discrete_curvature` of three coordinate lists, with a triple
    that repeats a point counted as an infeasible turn (``math.inf``).

    The searches call this form; the state engine repeats its
    arithmetic row-wise through :func:`_curvature_columns`.
    """
    curv = _circumcurvature(x, y, z)
    return math.inf if curv is None else curv


def discrete_curvature(x, y, z) -> float:
    """Inverse circumradius of a triple whose angle at y is at least pi/2.

    Returns ``math.inf`` when the angle at y is acute: such triples are
    rejected outright.  Collinear triples with y between the endpoints
    have an infinite circumradius and return 0; collinear triples with
    both endpoints on the same side of y fall in the acute branch and
    return ``math.inf``.

    The angle test uses the sign of <x-y, z-y>, so exactly-right angles
    are included without a tolerance knob.  Everything is explicit
    coordinate arithmetic on floats (products summed in coordinate
    order), so its row-wise form :func:`_curvature_columns` reproduces
    it bit for bit.

    Raises:
        ValueError: if any two of the points coincide.
    """
    curv = _circumcurvature(
        _as_vector(x, "x").tolist(),
        _as_vector(y, "y").tolist(),
        _as_vector(z, "z").tolist(),
    )
    if curv is None:
        raise ValueError("curvature needs three pairwise distinct points")
    return curv


def lexicographic_rank(points) -> np.ndarray:
    """Position of each point in lexicographic coordinate order, the
    order :func:`turn_curvature` uses to put the endpoints first."""
    pts = np.asarray(points, dtype=np.float64)
    rank = np.empty(len(pts), dtype=np.int64)
    rank[np.lexsort(pts.T[::-1])] = np.arange(len(pts))
    return rank


def _curvature_columns(a, b, c, na2, nb, dot) -> np.ndarray:
    """Row-wise :func:`turn_curvature` on coordinate columns, bit for
    bit: a = x - y, b = z - y and c = z - x per coordinate, the
    endpoints x, z in lexicographic order, with na2 = a.a, nb = |b| and
    dot = a.b given, since the callers have them at hand.  Every IEEE
    operation of the scalar form is repeated per column, in the same
    order; triples that repeat a point or turn acutely give ``inf``.
    """
    nc = np.sqrt(_dot(c, c))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = dot / na2
        rej = [p - t * q for p, q in zip(b, a)]
        out = 2.0 * np.sqrt(_dot(rej, rej)) / (nb * nc)
    out[(na2 == 0.0) | (nb == 0.0) | (nc == 0.0) | (dot > 0.0)] = np.inf
    return out


def chord_lower_bound(kappa: float, s: float) -> float:
    """Shortest chord achievable by a curve of curvature <= kappa over
    arclength s.  Equality is attained on circle arcs of radius 1/kappa.

    Valid only for s <= pi/kappa; beyond the half turn the bound fails
    and callers must gate.
    """
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise ValueError("kappa must be finite and positive")
    if s < 0.0:
        raise ValueError("arclength must be nonnegative")
    if s > math.pi / kappa:
        raise ValueError("chord bound only holds for s <= pi/kappa")
    return (2.0 / kappa) * math.sin(kappa * s / 2.0)

