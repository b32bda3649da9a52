"""Boundary curve kinds: segments, Bezier, rational Bezier, expression-defined.

Every curve maps t in [0,1] to a point in the plane and exposes position and
velocity.  Evaluation is vectorized: ``t`` may be a scalar or a 1-D numpy
array, and the result has shape ``t.shape + (2,)``.  ``sample_chain``
evaluates a whole chain of curves at shared nodes or at one row of nodes
per curve: every segment in one pass, every other curve through its own
position and velocity.
"""

import numpy as np

from . import exprlang
from .errors import InvalidArgumentError, real_array


def _check_t(t):
    t = real_array(t, "curve parameter")
    if not t.size:
        return t
    lo, hi = t.min(), t.max()
    # negated so that a NaN node (every comparison with it is false) fails too
    if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
        raise InvalidArgumentError("curve parameter must lie in [0,1]")
    return np.clip(t, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else t


class Curve:
    """Common interface: position(t) and velocity(t) over t in [0,1]."""

    def position(self, t):
        raise NotImplementedError

    def velocity(self, t):
        raise NotImplementedError


class Segment(Curve):
    def __init__(self, a, b):
        self.a = real_array(a, "segment endpoints")
        self.b = real_array(b, "segment endpoints")
        if self.a.shape != (2,) or self.b.shape != (2,):
            raise InvalidArgumentError("segment endpoints must be 2-D points")
        self.d = self.b - self.a

    def position(self, t):
        t = _check_t(t)
        return self.a + np.multiply.outer(t, self.d)

    def velocity(self, t):
        t = _check_t(t)
        return np.broadcast_to(self.d, np.shape(t) + (2,)).copy()

    def __repr__(self):
        return "Segment(%s -> %s)" % (tuple(self.a), tuple(self.b))


def _de_casteljau(points, t):
    # points: (n+1, d), one control polygon in any dimension d; t: an array.
    # Returns a new array of shape t.shape + (d,), for a degree-0 polygon too.
    t = np.asarray(t, dtype=float)[..., None, None]
    work = np.broadcast_to(points, t.shape[:-2] + points.shape)
    while work.shape[-2] > 1:
        work = (1.0 - t) * work[..., :-1, :] + t * work[..., 1:, :]
    return np.array(work[..., 0, :])


class Bezier(Curve):
    """Polynomial Bezier curve, evaluated by de Casteljau's algorithm."""

    def __init__(self, control_points):
        cp = real_array(control_points, "control points")
        if cp.ndim != 2 or cp.shape[1] != 2 or cp.shape[0] < 2:
            raise InvalidArgumentError("need at least two 2-D control points")
        self.control_points = cp
        self.degree = cp.shape[0] - 1
        # hodograph control points of the derivative curve
        self._dcp = self.degree * np.diff(cp, axis=0)

    def position(self, t):
        return _de_casteljau(self.control_points, _check_t(t))

    def velocity(self, t):
        return _de_casteljau(self._dcp, _check_t(t))


class RationalBezier(Curve):
    """Rational Bezier: projective de Casteljau plus a perspective divide."""

    def __init__(self, control_points, weights):
        cp = real_array(control_points, "control points")
        w = real_array(weights, "rational weights")
        if cp.ndim != 2 or cp.shape[1] != 2 or cp.shape[0] < 2:
            raise InvalidArgumentError("need at least two 2-D control points")
        if w.shape != (cp.shape[0],):
            raise InvalidArgumentError("one weight per control point")
        if np.any(w <= 0):
            raise InvalidArgumentError("rational weights must be positive")
        self.control_points = cp
        self.weights = w
        self.degree = cp.shape[0] - 1
        self._hcp = np.column_stack([cp * w[:, None], w])  # homogeneous (wx, wy, w)
        self._dhcp = self.degree * np.diff(self._hcp, axis=0)

    def position(self, t):
        t = _check_t(t)
        h = _de_casteljau(self._hcp, t)
        return h[..., :2] / h[..., 2:3]

    def velocity(self, t):
        # quotient rule on the homogeneous polynomial curve:
        # c = p/w  =>  c' = (p' w - p w') / w^2, all degree-(n-1) evaluations
        t = _check_t(t)
        h = _de_casteljau(self._hcp, t)
        dh = _de_casteljau(self._dhcp, t)
        w = h[..., 2:3]
        return (dh[..., :2] * w - h[..., :2] * dh[..., 2:3]) / (w * w)


class ParametricCurve(Curve):
    """Curve defined by two expressions in t.

    The velocity is a complex step, Im c(t + ih) / h: one evaluation of the
    expressions at complex t, exact to round-off, with no difference to
    cancel.  Where the derivative is infinite, as for ``t^0.5`` at t = 0, the
    velocity is infinite, or merely huge where the step straddles a complex
    branch point: ``sqrt`` at 0 (about 8e14 for ``sqrt(t)``), ``asin`` and
    ``acos`` at +-1 (about -1.1e15 for ``asin(1-t)`` at t = 0) and ``ln``
    at 0 (about 2e30 for ``ln(t)``).
    """

    def __init__(self, x_src, y_src):
        self.x_src = x_src
        self.y_src = y_src
        self._x_expr = exprlang.parse(x_src)
        self._y_expr = exprlang.parse(y_src)
        for expr, src in ((self._x_expr, x_src), (self._y_expr, y_src)):
            extra = expr.variables - {"t"}
            if extra:
                raise InvalidArgumentError(
                    "parametric coordinate %r may only use t, found %s" % (src, sorted(extra))
                )

    def position(self, t):
        return self._raw(_check_t(t))

    def _raw(self, t):
        # a complex t, from velocity, keeps its imaginary part
        out = np.empty(np.shape(t) + (2,), dtype=np.result_type(t))
        out[..., 0] = exprlang.evaluate(self._x_expr, {"t": t})
        out[..., 1] = exprlang.evaluate(self._y_expr, {"t": t})
        return out

    def velocity(self, t):
        # h is a power of two, so dividing by it is exact and h drops out
        h = 2.0**-100
        return self._raw(_check_t(t) + 1j * h).imag / h


def sample_chain(curves, t, velocity=True):
    """Positions and, if asked, velocities of m curves at the nodes t.

    t is either the shared nodes (n,) or one row of nodes per curve (m, n).
    Returns (C, V), each (m, n, 2) in chain order; V is None without
    ``velocity``.  t is checked once.  Every exact ``Segment`` is evaluated
    in one pass, as a + t d at its own row of t, with the same element-wise
    operations as its own methods, so the values are bit-identical to
    them.  Any other curve, a subclass of Segment included, is evaluated on
    its own row through its position and velocity methods.
    """
    t = _check_t(t)
    m = len(curves)
    if t.ndim not in (1, 2) or t.ndim == 2 and len(t) != m:
        raise InvalidArgumentError(
            "nodes must be (n,) or one row per curve (%d, n), got shape %s" % (m, t.shape)
        )
    C = np.empty((m, t.shape[-1], 2))
    V = np.empty_like(C) if velocity else None
    rows = []
    for i, c in enumerate(curves):
        if type(c) is Segment:
            rows.append(i)
            continue
        ti = t if t.ndim == 1 else t[i]
        _put(C, i, c.position(ti), "position")
        if velocity:
            _put(V, i, c.velocity(ti), "velocity")
    if rows:
        segments = [curves[i] for i in rows]
        if len(rows) == m:
            rows = slice(None)  # a chain of segments only
        tg = t if t.ndim == 1 else t[rows]
        d = np.array([c.d for c in segments])[:, None]
        C[rows] = np.array([c.a for c in segments])[:, None] + tg[..., None] * d
        if velocity:
            V[rows] = d
    return C, V


def _put(out, i, value, what):
    # a sample array of the wrong shape must not broadcast into out[i]
    if np.shape(value) != out.shape[1:]:
        raise InvalidArgumentError(
            "curve %d %s has shape %s, expected %s" % (i, what, np.shape(value), out.shape[1:])
        )
    out[i] = value

