"""Closed planar regions bounded by an ordered counterclockwise chain of curves."""

from dataclasses import dataclass

import numpy as np

from .curves import Segment, sample_chain
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class CenterPolicy:
    """Scaling-center selection: 'origin', 'vertex_average', 'vertex', 'custom'."""

    strategy: str
    index: int = 0
    point: tuple = (0.0, 0.0)

    ORIGIN = None  # populated below
    VERTEX_AVERAGE = None

    @staticmethod
    def vertex(i):
        return CenterPolicy("vertex", index=i)

    @staticmethod
    def custom(p):
        return CenterPolicy("custom", point=(float(p[0]), float(p[1])))


CenterPolicy.ORIGIN = CenterPolicy("origin")
CenterPolicy.VERTEX_AVERAGE = CenterPolicy("vertex_average")


class Region:
    """Counterclockwise chain of curves; end of each curve meets the next start.

    The bounding box (from 64 samples per curve) and its diagonal are
    computed once.  Chain closure is validated to 1e-12 times that diagonal
    (per coordinate); gaps and non-finite samples are a hard error.
    Orientation is not checked at construction (signed area needs an
    integration rule), but downstream results are signed, so a clockwise
    chain yields negative area.
    """

    def __init__(self, curves):
        curves = list(curves)
        if not curves:
            raise InvalidArgumentError("region needs at least one curve")
        self.curves = curves
        # positions only: a velocity may be infinite at an endpoint
        pts = check_finite(sample_chain(curves, np.linspace(0.0, 1.0, 64), velocity=False)[0])
        self._bbox = (pts.min(axis=(0, 1)), pts.max(axis=(0, 1)))
        for a in self._bbox:
            a.setflags(write=False)
        self._scale = float(np.hypot(*(self._bbox[1] - self._bbox[0])))
        # the samples hold t = 0 and t = 1: each curve's start() and end()
        starts = pts[:, 0].copy()
        ends = pts[:, -1]
        gap = np.abs(ends - np.roll(starts, -1, axis=0)).max()
        tol = 1e-12 * self._scale
        if gap > tol:
            raise InvalidArgumentError(
                "boundary chain is not closed: max endpoint gap %.3e exceeds %.3e"
                % (gap, tol)
            )
        for c in curves:
            if isinstance(c, Segment) and np.hypot(*(c.b - c.a)) == 0.0:
                raise InvalidArgumentError("zero-length segment in boundary chain")
        self._starts = starts

    @property
    def vertices(self):
        """Curve start points, in chain order."""
        return self._starts.copy()

    def bbox(self):
        """(lo, hi) corners of the sampled bounding box, read-only."""
        return self._bbox

    def scale(self):
        """Bounding-box diagonal, used for relative tolerances."""
        return self._scale


NODE_VELOCITY = "has a non-finite velocity at a quadrature node"


def check_finite(a, what="is not finite on [0, 1]"):
    """Samples a (m, n, 2) of m curves; raise naming the first curve with a
    non-finite sample (NaN passes comparisons)."""
    if not np.isfinite(a).all():
        bad = np.flatnonzero(~np.isfinite(a).all(axis=(1, 2)))
        raise InvalidArgumentError("curve %d %s" % (bad[0], what))
    return a


def polygon(vertices):
    """Region whose boundary is the closed polyline through the given vertices."""
    v = np.asarray(vertices, dtype=float)
    return Region([Segment(v[i], v[(i + 1) % len(v)]) for i in range(len(v))])


def resolve_center(region, policy):
    if policy.strategy == "origin":
        return np.zeros(2)
    if policy.strategy == "vertex_average":
        return region.vertices.mean(axis=0)
    if policy.strategy == "vertex":
        i = policy.index
        if not 0 <= i < len(region.curves):
            raise InvalidArgumentError(
                "vertex index %d out of range for %d curves" % (i, len(region.curves))
            )
        return region.vertices[i]
    if policy.strategy == "custom":
        x0 = np.asarray(policy.point, dtype=float)
        if not np.isfinite(x0).all():
            raise InvalidArgumentError("custom center %s is not finite" % x0.tolist())
        return x0
    raise InvalidArgumentError("unknown center strategy %r" % (policy.strategy,))


def decompose(region, x0, t):
    """The curved triangles spanned by x0 and each boundary curve, sampled at t.

    t is either the nodes (n,) shared by all m curves or one row of nodes
    per curve (m, n).  The curves are sampled in one pass per curve class
    (``sample_chain``: segments together, Bezier and rational Bezier curves
    by degree, any other curve on its own row); the result is C = c_i(t),
    c_i'_perp = (c_i2', -c_i1') (the outward normal times |c_i'| on a
    counterclockwise chain) and (C - x0).c_i'_perp, the t-part of the scaled
    boundary Jacobian, in chain order, with shapes (m, n, 2), (m, n, 2) and
    (m, n).  Each row holds the same values as the curve's own position and
    velocity give.  A non-finite C is an InvalidArgumentError naming the
    curve's chain index; c_i' may be infinite at an endpoint, so callers
    that sample at interior nodes check it with ``check_finite``.
    """
    C, V = sample_chain(region.curves, t)
    N = V[..., ::-1] * (1.0, -1.0)
    return check_finite(C), N, np.einsum("...i,...i->...", C - np.asarray(x0, dtype=float), N)


def is_star_convex(region, x0):
    """Sampled sufficient check that every boundary point sees x0 from inside.

    256 samples per curve, endpoints included.  Advisory only: the cubature
    stays correct for non-star-convex choices of x0, the partition just
    acquires signed (partially cancelling) pieces.
    """
    tol = 1e-12 * region.scale() ** 2
    return not np.any(decompose(region, x0, np.linspace(0.0, 1.0, 256))[2] < -tol)
