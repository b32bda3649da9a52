"""Closed planar regions bounded by an ordered counterclockwise chain of curves."""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .curves import Segment, _floats, sample_chain
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class CenterPolicy:
    """Scaling center, checked when built: 'origin', 'vertex_average', 'vertex', 'custom'."""

    strategy: str
    index: int = None
    point: tuple = None

    def __post_init__(self):
        if self.strategy not in ("origin", "vertex_average", "vertex", "custom"):
            raise InvalidArgumentError("unknown center strategy %r" % (self.strategy,))
        wants = {"vertex": "index", "custom": "point"}.get(self.strategy)
        for k in ("index", "point"):
            if (getattr(self, k) is None) == (k == wants):
                raise InvalidArgumentError("center strategy %r %s %s" % (
                    self.strategy, "needs" if k == wants else "takes no", k))
        if wants == "index":
            i = self.index  # int() alone would truncate 1.7 and read True as 1
            if isinstance(i, bool) or not isinstance(i, numbers.Real) or i % 1:
                raise InvalidArgumentError("vertex index must be an integer, got %r" % (i,))
            object.__setattr__(self, "index", int(i))
        if wants == "point":
            object.__setattr__(self, "point", finite_point(self.point, "custom center point"))

    @staticmethod
    def vertex(i):
        return CenterPolicy("vertex", index=i)

    @staticmethod
    def custom(p):
        return CenterPolicy("custom", point=p)


def finite_point(value, what):
    """value as a tuple of two finite floats, or InvalidArgumentError naming what."""
    p = _floats(value, what)
    if p.shape != (2,) or not all(map(math.isfinite, p.tolist())):
        raise InvalidArgumentError("%s must be two finite numbers, got %r" % (what, value))
    return tuple(p.tolist())


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
    if policy.strategy == "custom":
        return np.array(policy.point)
    if not 0 <= policy.index < len(region.curves):
        raise InvalidArgumentError("vertex index %d out of range for %d curves"
                                   % (policy.index, len(region.curves)))
    return region.vertices[policy.index]


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
    curve's chain index, and so is a non-finite c_i'_perp at a node strictly
    inside (0, 1): a NaN there would pass every sign and skip test unseen.
    c_i' may be infinite at an endpoint, as for t^0.5 at t = 0.
    """
    C, V = sample_chain(region.curves, t)
    N = V[..., ::-1] * (1.0, -1.0)
    check_finite(C)
    if not np.isfinite(N).all():
        t = np.asarray(t, dtype=float)
        inner = ((t > 0.0) & (t < 1.0))[..., None]
        check_finite(np.where(inner, N, 0.0), "has a non-finite velocity at a node in (0, 1)")
    return C, N, np.einsum("...i,...i->...", C - np.asarray(x0, dtype=float), N)


def is_star_convex(region, x0):
    """Sampled sufficient check that every boundary point sees x0 from inside.

    256 samples per curve, endpoints included.  Advisory only: the cubature
    stays correct for non-star-convex choices of x0, the partition just
    acquires signed (partially cancelling) pieces.
    """
    tol = 1e-12 * region.scale() ** 2
    return not np.any(decompose(region, x0, np.linspace(0.0, 1.0, 256))[2] < -tol)
