"""Closed planar regions bounded by an ordered counterclockwise chain of curves."""

from dataclasses import dataclass

import numpy as np

from .curves import Segment, boundary_samples
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
        pts = _finite(np.stack([c.position(np.linspace(0.0, 1.0, 64)) for c in curves]))
        self._bbox = (pts.min(axis=(0, 1)), pts.max(axis=(0, 1)))
        for a in self._bbox:
            a.setflags(write=False)
        self._scale = float(np.hypot(*(self._bbox[1] - self._bbox[0])))
        starts = np.array([c.start() for c in curves])
        ends = np.array([c.end() for c in curves])
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


def _finite(C):
    """Positions C (m, n, 2) of m curves; raise if one is not finite (NaN passes comparisons)."""
    bad = np.flatnonzero(~np.isfinite(C).all(axis=(1, 2)))
    if bad.size:
        raise InvalidArgumentError("curve %d is not finite on [0, 1]" % bad[0])
    return C


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

    Every curve is sampled once at the nodes t (see ``boundary_samples``);
    the result is C = c_i(t), c_i'_perp and (C - x0).c_i'_perp stacked over
    the m curves, with shapes (m, n, 2), (m, n, 2) and (m, n).  A non-finite
    C is an InvalidArgumentError; c_i' may be infinite at an endpoint.
    """
    x0 = np.asarray(x0, dtype=float)
    C, N, perp = (np.stack(a) for a in zip(*(boundary_samples(c, t, x0) for c in region.curves)))
    return _finite(C), N, perp


def is_star_convex(region, x0):
    """Sampled sufficient check that every boundary point sees x0 from inside.

    256 samples per curve, endpoints included.  Advisory only: the cubature
    stays correct for non-star-convex choices of x0, the partition just
    acquires signed (partially cancelling) pieces.
    """
    tol = 1e-12 * region.scale() ** 2
    return not np.any(decompose(region, x0, np.linspace(0.0, 1.0, 256))[2] < -tol)
