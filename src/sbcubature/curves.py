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


def _floats(value, what):
    """value as a float array, or InvalidArgumentError when it is not numeric."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidArgumentError("%s must be numbers, got %r" % (what, value)) from None


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
        self.a = _floats(a, "segment endpoints")
        self.b = _floats(b, "segment endpoints")
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
        cp = _floats(control_points, "control points")
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
        cp = _floats(control_points, "control points")
        w = _floats(weights, "rational weights")
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

    The velocity is a complex step, Im c(t + ih) / h: one evaluation of the
    expressions at complex t, exact to round-off, with no difference to
    cancel.  Where the derivative is infinite, as for ``t^0.5`` at t = 0, the
    velocity is infinite, or merely huge for ``sqrt(t)`` (about 8e14), whose
    complex branch point the step straddles.
    """

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
        # a complex t, from velocity, keeps its imaginary part
        out = np.empty(np.shape(t) + (2,), dtype=np.result_type(t))
        out[..., 0] = exprlang.evaluate(self._x_ast, {"t": t})
        out[..., 1] = exprlang.evaluate(self._y_ast, {"t": t})
        return out

    def velocity(self, t):
        # h is a power of two, so dividing by it is exact and h drops out
        h = 2.0**-100
        return self._raw(_check_t(t) + 1j * h).imag / h


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
