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
from .region import Region, decompose


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


def _scaled_kernel(loop, x, n_t, power):
    """Kernel K = (c-x).c'_perp * (d / ||c-x||)^power for points x (N,2), with
    the boundary samples' weights w and each point's nearest-sample distance d.

    The kernel sum is W = d^-power * (K @ w): factoring d out keeps every
    power at most 1, so nothing overflows for large powers, and K @ w has
    the sign of W.
    """
    C, R, w = loop.samples(n_t)
    diff = C[None, :, :] - x[:, None, :]          # (N, M, 2)
    dist = np.hypot(diff[..., 0], diff[..., 1])
    d = dist.min(axis=1)
    K = np.divide(d[:, None], dist, out=dist)
    K **= power
    K *= np.einsum("nmi,mi->nm", diff, R)
    return K, w, d


def evaluate_masked(loop, x, n_t=256, g=None, p=None):
    """Values and inside mask at points x (N,2) from one kernel pass.

    With boundary data g, the mean value interpolant (kernel power 3); with
    p, the Lp-distance field (kernel power 2 + p).  Points outside the loop
    or within 1e-9 scale of its boundary get NaN and mask False; final
    values are computed only for the points inside.
    """
    if (g is None) == (p is None):
        raise InvalidArgumentError("give boundary data g or a power p, not both")
    if p is not None and not 1 <= p < np.inf:
        raise InvalidArgumentError("p must be finite and >= 1, got %r" % (p,))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if g is not None:
        C = loop.samples(n_t)[0]
        gC = np.asarray(g(C[:, 0], C[:, 1]), dtype=float)
    K, w, d = _scaled_kernel(loop, x, n_t, 3.0 if p is None else 2.0 + p)
    S = K @ w
    inside = (d > 1e-9 * loop.scale()) & (S > 0.0)
    values = np.full(len(x), np.nan)
    if g is not None:
        K *= gC
        values[inside] = (K @ w)[inside] / S[inside]
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


def exact_distance(loop, x):
    """Distance from x to the boundary: Newton on d/dt ||x - c(t)||^2 per curve.

    Sixteen uniform seeds per curve plus the endpoints; the second derivative
    uses a central difference of the velocity, so curves only need first
    derivatives.
    """
    x = np.asarray(x, dtype=float)
    h = 1e-6
    best = np.inf
    for c in loop.curves:
        cand = list(np.linspace(0.0, 1.0, 18))
        seeds = np.linspace(1.0 / 32.0, 1.0 - 1.0 / 32.0, 16)
        for t in seeds:
            for _ in range(50):
                d = x - c.position(t)
                v = c.velocity(t)
                acc = (c.velocity(min(t + h, 1.0)) - c.velocity(max(t - h, 0.0))) / (
                    min(t + h, 1.0) - max(t - h, 0.0)
                )
                F = -2.0 * np.dot(d, v)
                dF = 2.0 * np.dot(v, v) - 2.0 * np.dot(d, acc)
                if dF == 0.0:
                    break
                step = F / dF
                t = min(1.0, max(0.0, t - step))
                if abs(step) < 1e-14:
                    break
            if abs(-2.0 * np.dot(x - c.position(t), c.velocity(t))) < 1e-13 * (
                1.0 + loop.scale() ** 2
            ):
                cand.append(t)
        dists = np.hypot(*(x - c.position(np.array(cand))).T)
        best = min(best, float(dists.min()))
    return best

