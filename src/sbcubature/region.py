"""Closed planar regions bounded by an ordered counterclockwise chain of curves."""

import math
import numbers
import threading
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


def finite_or_nan(value):
    """value as a float if it is a finite real number, else NaN, which fails every range check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # float(True) is 1.0
        return math.nan
    try:
        # compared as float: a bound cast to a narrow numpy scalar's type overflows
        value = float(value)
    except OverflowError:  # an int beyond the float range
        return math.nan
    return value if math.isfinite(value) else math.nan


CenterPolicy.ORIGIN = CenterPolicy("origin")
CenterPolicy.VERTEX_AVERAGE = CenterPolicy("vertex_average")

# Bytes of boundary samples one Region keeps (Region.boundary_samples), the
# oldest entry evicted first: 11 curves take 0.73 MB at every n <= 64
_SAMPLE_BUDGET = 2**21


class Region:
    """Counterclockwise chain of curves; end of each curve meets the next start.

    The bounding box (from 64 samples per curve) and its diagonal are
    computed once.  Chain closure is validated to 1e-12 times that diagonal
    (per coordinate); gaps and non-finite samples are a hard error.
    Orientation is not checked at construction (signed area needs an
    integration rule), but downstream results are signed, so a clockwise
    chain yields negative area.  The curves are a tuple, fixed at
    construction, so the boundary samples the region caches cannot go stale.
    """

    def __init__(self, curves):
        curves = tuple(curves)
        if not curves:
            raise InvalidArgumentError("region needs at least one curve")
        self._curves = curves
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
        # id(t) -> (t, C, N, speed, bytes), oldest first; the entry holds t,
        # so no other array can take its id while the entry lives
        self._samples = {}
        self._sample_bytes = 0
        self._samples_lock = threading.Lock()

    def __getstate__(self):
        # a lock cannot be pickled, and the samples are keyed by the ids of
        # this process's node arrays: a copy starts with none
        state = dict(self.__dict__, _samples={}, _sample_bytes=0)
        del state["_samples_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state, _samples_lock=threading.Lock())

    @property
    def curves(self):
        """The boundary curves, a tuple in chain order."""
        return self._curves

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

    def boundary_samples(self, t):
        """C = c_i(t), c_i'_perp and each curve's max|c_i'_perp| at nodes t, read-only.

        t is either the nodes (n,) shared by all m curves or one row of nodes
        per curve (m, n).  The segments are sampled in one pass and every
        other curve through its own methods (``sample_chain``);
        c_i'_perp = (c_i2', -c_i1') is the outward normal times |c_i'| on a
        counterclockwise chain.  Shapes are (m, n, 2), (m, n, 2) and (m,),
        in chain order, and each row holds the same values as the curve's
        own position and velocity give.  A non-finite C is an
        InvalidArgumentError naming the curve's chain index, and so is a
        non-finite c_i'_perp at a node strictly inside (0, 1), where a NaN
        would pass every sign and skip test unseen; c_i' may be infinite at
        an endpoint, as for t^0.5 at t = 0.

        None of this depends on a scaling center, so the region keeps it,
        keyed by identity, for a read-only node array that owns its data and
        is taken never to change, such as the Gauss nodes: a second call
        with the same array evaluates no curve.  Other nodes (writable
        arrays, views, lists) are sampled at every call, and an error is
        never kept.  At most _SAMPLE_BUDGET bytes are kept, the oldest entry
        evicted first; a larger entry is returned and not kept.  A chain of
        exact ``Segment`` curves keeps one c_i'_perp per edge, broadcast
        over the nodes: the same values, in 16 bytes per edge.
        """
        entry = self._samples.get(id(t))
        if entry is not None:
            return entry[1:4]
        C, V = sample_chain(self._curves, t)
        N = V[..., ::-1] * (1.0, -1.0)
        check_finite(C)
        if not np.isfinite(N).all():
            nodes = np.asarray(t, dtype=float)
            inner = ((nodes > 0.0) & (nodes < 1.0))[..., None]
            check_finite(np.where(inner, N, 0.0), "has a non-finite velocity at a node in (0, 1)")
        speed = np.hypot(N[..., 0], N[..., 1]).max(axis=1, initial=0.0)
        for a in (C, N, speed):
            a.setflags(write=False)
        keeps = isinstance(t, np.ndarray) and t.flags.owndata and not t.flags.writeable
        n_bytes = N.nbytes
        if keeps and all(type(c) is Segment for c in self._curves):
            # each row of a segment's c'_perp is one vector: keep it once per edge
            edge = N[:, :1].copy()
            edge.setflags(write=False)
            N = np.broadcast_to(edge, N.shape)
            n_bytes = edge.nbytes
        size = C.nbytes + n_bytes + speed.nbytes
        if keeps and size <= _SAMPLE_BUDGET:
            with self._samples_lock:  # another thread may fill or evict meanwhile
                if id(t) not in self._samples:
                    while self._sample_bytes + size > _SAMPLE_BUDGET:
                        self._sample_bytes -= self._samples.pop(next(iter(self._samples)))[4]
                    self._samples[id(t)] = (t, C, N, speed, size)
                    self._sample_bytes += size
        return C, N, speed


def check_finite(a, what="is not finite on [0, 1]"):
    """Samples a (m, n, 2) of m curves; raise naming the first curve with a
    non-finite sample (NaN passes comparisons)."""
    if not np.isfinite(a).all():
        bad = np.flatnonzero(~np.isfinite(a).all(axis=(1, 2)))
        raise InvalidArgumentError("curve %d %s" % (bad[0], what))
    return a


def polygon(vertices):
    """Region whose boundary is the closed polyline through the given (k, 2) vertices."""
    v = _floats(vertices, "polygon vertices")
    if v.ndim != 2 or v.shape[1] != 2:
        raise InvalidArgumentError("polygon vertices must be 2-D points, got shape %s" % (v.shape,))
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
    per curve (m, n).  Returns the chain index of each curve that counts,
    its samples C = c_i(t) and (C - x0).c_i'_perp, the t-part of the scaled
    boundary Jacobian, with shapes (k,), (k, n, 2) and (k, n), k <= m.  A
    curve is dropped when max|(C - x0).c_i'_perp| <= 1e-14 * scale * max|c_i'|:
    x0 lies on it (or on its supporting line), so its triangle has no area.
    A curve whose max|c_i'| is infinite (t^0.5 sampled at t = 0) is kept.
    C is read-only: ``region.boundary_samples(t)``, which the region keeps
    for a read-only node array such as the Gauss nodes, or a copy of its
    rows that count, so only the product with C - x0, a new array, is
    computed per center.  Non-finite samples raise as
    ``Region.boundary_samples`` describes.
    """
    C, N, speed = region.boundary_samples(t)
    perp = np.einsum("...i,...i->...", C - np.asarray(x0, dtype=float), N)
    keep = (np.abs(perp).max(axis=1, initial=0.0) > 1e-14 * region.scale() * speed) | np.isinf(speed)
    if keep.all():
        return np.arange(len(keep)), C, perp
    C = C[keep]
    C.setflags(write=False)
    return np.flatnonzero(keep), C, perp[keep]
