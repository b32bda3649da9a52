"""Boundary curve kinds: segments, Bezier, rational Bezier, expression-defined.

Every curve maps t in [0,1] to a point in the plane and exposes position and
velocity.  Evaluation is vectorized: ``t`` may be a scalar or a 1-D numpy
array, and the result has shape ``t.shape + (2,)``.
"""

import numpy as np

from . import exprlang
from .errors import InvalidArgumentError


def _check_t(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
        raise InvalidArgumentError("curve parameter must lie in [0,1]")
    return np.clip(t, 0.0, 1.0)


class Curve:
    """Common interface: position(t) and velocity(t) over t in [0,1]."""

    def position(self, t):
        raise NotImplementedError

    def velocity(self, t):
        raise NotImplementedError

    def start(self):
        return self.position(0.0)

    def end(self):
        return self.position(1.0)


class Segment(Curve):
    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
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
    # points: (n+1, d) in any dimension d; t: array.  Returns a new array of
    # shape t.shape + (d,).
    t = np.asarray(t, dtype=float)[..., None, None]
    work = np.broadcast_to(points, t.shape[:-2] + points.shape)  # (..., n+1, d)
    while work.shape[-2] > 1:
        work = (1.0 - t) * work[..., :-1, :] + t * work[..., 1:, :]
    return np.array(work[..., 0, :])


class Bezier(Curve):
    """Polynomial Bezier curve, evaluated by de Casteljau's algorithm."""

    def __init__(self, control_points):
        cp = np.asarray(control_points, dtype=float)
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
        cp = np.asarray(control_points, dtype=float)
        w = np.asarray(weights, dtype=float)
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
        dw = dh[..., 2:3]
        return (dh[..., :2] * w - h[..., :2] * dw) / (w * w)


class ParametricCurve(Curve):
    """Curve defined by two expressions in t.

    The derivative is a central finite difference with h = 1e-6 (second-order
    one-sided at the endpoints), which is accurate to roughly 1e-9 relative
    for smooth coordinate functions.
    """

    _H = 1e-6

    def __init__(self, x_src, y_src):
        self.x_src = x_src
        self.y_src = y_src
        self._x_ast = exprlang.parse(x_src)
        self._y_ast = exprlang.parse(y_src)
        for ast, src in ((self._x_ast, x_src), (self._y_ast, y_src)):
            extra = exprlang.free_variables(ast) - {"t"}
            if extra:
                raise InvalidArgumentError(
                    "parametric coordinate %r may only use t, found %s" % (src, sorted(extra))
                )

    def position(self, t):
        return self._raw(_check_t(t))

    def _raw(self, t):
        x = exprlang.evaluate(self._x_ast, {"t": t})
        y = exprlang.evaluate(self._y_ast, {"t": t})
        out = np.empty(np.shape(t) + (2,))
        out[..., 0] = x
        out[..., 1] = y
        return out

    def velocity(self, t):
        t = _check_t(t)
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(t)
        h = self._H
        lo = t < h
        hi = t > 1.0 - h
        mid = ~(lo | hi)
        out = np.empty(t.shape + (2,))
        if np.any(mid):
            tm = t[mid]
            out[mid] = (self._raw(tm + h) - self._raw(tm - h)) / (2.0 * h)
        if np.any(lo):
            tl = t[lo]
            out[lo] = (
                -3.0 * self._raw(tl) + 4.0 * self._raw(tl + h) - self._raw(tl + 2.0 * h)
            ) / (2.0 * h)
        if np.any(hi):
            th = t[hi]
            out[hi] = (
                3.0 * self._raw(th) - 4.0 * self._raw(th - h) + self._raw(th - 2.0 * h)
            ) / (2.0 * h)
        if scalar:
            return out[0]
        return out


def boundary_samples(curve, t, x0):
    """The boundary part of every scaled boundary rule, at the t-nodes of one curve.

    Returns C = c(t), the rotated velocity c'_perp = (c2', -c1') (the outward
    normal times |c'| on a counterclockwise curve) and (C - x0).c'_perp.  The
    last is the t-part of the scaled boundary Jacobian xi * (C - x0).c'_perp;
    it is positive where x0 sees the curve from its interior side.
    """
    C = curve.position(t)
    V = curve.velocity(t)
    N = np.stack([V[..., 1], -V[..., 0]], axis=-1)
    return C, N, np.einsum("...i,...i->...", C - x0, N)
