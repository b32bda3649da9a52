"""Transfinite mean value interpolation and Lp-distance fields on convex loops.

The interpolant of boundary data g at an interior point x is

    u(x) = int g(c(t)) K(x,t) dt / W(x),   K = (c-x).c'_perp / ||c-x||^3,
    W(x) = int K(x,t) dt,

and the Lp-distance field is psi = (1/W_p)^(1/p) with the kernel power
2+p in place of 3.  Both are boundary-only integrals; W > 0 on the interior
of a convex counterclockwise loop.
"""

import warnings

import numpy as np

from . import rules
from .curves import Curve
from .errors import InvalidArgumentError
from .region import NODE_VELOCITY, Region, check_finite, decompose


class BoundaryLoop(Region):
    """Closed counterclockwise convex chain of curves.

    Convexity is advisory: a warning, not an error, since mildly nonconvex
    loops merely degrade kernel positivity near the boundary.
    """

    def __init__(self, curves, check_convex=True):
        super().__init__(curves)
        self._sample_cache = {}
        if check_convex:
            C, N, CN = decompose(self, np.zeros(2), np.linspace(0.0, 1.0, 128))
            C = C.reshape(-1, 2)
            # convex: no sample C_j lies outside the tangent line at a sample
            # C_i, (C_j - C_i).n_i <= 0; one curve's tangent lines at a time
            # keeps memory linear in the number of curves
            for N_i, CN_i in zip(N, CN):
                norm = np.hypot(N_i[:, 0], N_i[:, 1])
                if np.max(C @ (N_i / norm[:, None]).T - CN_i / norm) > 1e-12 * self.scale():
                    warnings.warn("boundary loop does not look convex", stacklevel=2)
                    break

    def samples(self, n_t):
        """Per-loop cached (points, rotated velocities, weights) at n_t per curve."""
        cached = self._sample_cache.get(n_t)
        if cached is not None:
            return cached
        t_rule = rules.gauss_legendre(n_t)
        C, R, _ = decompose(self, np.zeros(2), t_rule.nodes)
        check_finite(R, NODE_VELOCITY)
        w = np.tile(t_rule.weights, len(self.curves))
        self._sample_cache[n_t] = (C.reshape(-1, 2), R.reshape(-1, 2), w)
        return self._sample_cache[n_t]


class EggCurve(Curve):
    """Closed egg-shaped oval c(t) = (r cos th, a r sin th / (b + r cos th)),
    th = 2 pi t, with exact derivative."""

    def __init__(self, a=4.0, b=5.0, r=1.0):
        if b - abs(r) <= 0:
            raise InvalidArgumentError("need b > |r| for a non-degenerate oval")
        self.a, self.b, self.r = float(a), float(b), float(r)

    def position(self, t):
        th = 2.0 * np.pi * np.asarray(t, dtype=float)
        a, b, r = self.a, self.b, self.r
        out = np.empty(np.shape(th) + (2,))
        out[..., 0] = r * np.cos(th)
        out[..., 1] = a * r * np.sin(th) / (b + r * np.cos(th))
        return out

    def velocity(self, t):
        th = 2.0 * np.pi * np.asarray(t, dtype=float)
        a, b, r = self.a, self.b, self.r
        den = b + r * np.cos(th)
        out = np.empty(np.shape(th) + (2,))
        out[..., 0] = -2.0 * np.pi * r * np.sin(th)
        out[..., 1] = 2.0 * np.pi * a * r * (r + b * np.cos(th)) / den**2
        return out


def egg_domain(a=4.0, b=5.0, r=1.0):
    return BoundaryLoop([EggCurve(a, b, r)])


# Pairs per row block of _scaled_kernel: a few planes of this many doubles
# stay in cache, and no (N, M) array is ever built.
_BLOCK_PAIRS = 2**16


def _scaled_kernel(loop, x, n_t, power, W):
    """Kernel sums K @ W (N, k) and each point's nearest-sample distance d (N,).

    K = (c-x).c'_perp * (d / ||c-x||)^power at the M boundary samples for
    points x (N,2); W (M, k) holds per-sample weights, such as the rule
    weights w and g(c) w.  The kernel sum W_x = d^-power * (K @ w): factoring
    d out keeps every power at most 1, so nothing overflows for large
    powers, and K @ w has the sign of W_x.

    The points are taken in row blocks of about _BLOCK_PAIRS pairs on
    separate dx and dy planes, so memory does not grow with N.
    """
    C, R, _ = loop.samples(n_t)
    # contiguous planes: strided columns slow every block pass by 5-10%
    Cx, Cy, Rx, Ry = (np.ascontiguousarray(a) for a in (C[:, 0], C[:, 1], R[:, 0], R[:, 1]))
    sums = np.empty((len(x), W.shape[1]))
    d = np.empty(len(x))
    rows = max(1, _BLOCK_PAIRS // len(Cx))
    for i in range(0, len(x), rows):
        xb = x[i:i + rows]
        dx = Cx - xb[:, :1]
        dy = Cy - xb[:, 1:]
        num = dx * Rx
        num += dy * Ry
        dx *= dx
        dy *= dy
        dx += dy
        dist = np.sqrt(dx, out=dx)
        d[i:i + rows] = db = dist.min(axis=1)
        # a point on a sample divides 0/0; its NaN row is masked out
        with np.errstate(invalid="ignore"):
            K = np.divide(db[:, None], dist, out=dist)
        K **= power
        K *= num
        np.matmul(K, W, out=sums[i:i + rows])
    return sums, d


def evaluate_masked(loop, x, n_t=256, g=None, p=None):
    """Values and inside mask at points x, one (2,) point or (N,2), from one kernel pass.

    With boundary data g, the mean value interpolant (kernel power 3); with
    p, the Lp-distance field (kernel power 2 + p).  Points outside the loop
    or within 1e-9 scale of its boundary get NaN and mask False; final
    values are computed only for the points inside.
    """
    if (g is None) == (p is None):
        raise InvalidArgumentError("give boundary data g or a power p, not both")
    if p is not None and not 1 <= p < np.inf:
        raise InvalidArgumentError("p must be finite and >= 1, got %r" % (p,))
    x = np.asarray(x, dtype=float)
    if x.shape == (2,):
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != 2:
        raise InvalidArgumentError("points must be one (2,) point or an (N, 2) array, got shape %s"
                                   % (x.shape,))
    C, _, w = loop.samples(n_t)
    if g is None:
        W = w[:, None]
    else:
        W = np.column_stack([w, np.asarray(g(C[:, 0], C[:, 1]), dtype=float) * w])
    sums, d = _scaled_kernel(loop, x, n_t, 3.0 if p is None else 2.0 + p, W)
    S = sums[:, 0]
    inside = (d > 1e-9 * loop.scale()) & (S > 0.0)
    values = np.full(len(x), np.nan)
    if g is not None:
        values[inside] = sums[inside, 1] / S[inside]
    else:
        # W_p^(-1/p) with W_p = d^-(2+p) * S, in a form that cannot overflow
        values[inside] = d[inside] ** ((2.0 + p) / p) * S[inside] ** (-1.0 / p)
    return values, inside


def _all_inside(values, inside):
    if not np.all(inside):
        raise InvalidArgumentError("evaluation point is outside or on the boundary")
    return values


def tmvi_eval_many(loop, g, x, n_t=256):
    """Mean value interpolant of boundary data g at interior points x (N,2)."""
    return _all_inside(*evaluate_masked(loop, x, n_t, g=g))


def lp_distance_many(loop, x, p, n_t=256):
    """Lp-distance field psi = (1/W_p)^(1/p) at interior points x (N,2)."""
    return _all_inside(*evaluate_masked(loop, x, n_t, p=p))
