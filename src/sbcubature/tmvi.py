"""Transfinite mean value interpolation and Lp-distance fields on convex loops.

The interpolant of boundary data g at an interior point x is

    u(x) = int g(c(t)) K(x,t) dt / W(x),   K = (c-x).c'_perp / ||c-x||^3,
    W(x) = int K(x,t) dt,

and the Lp-distance field is psi = (1/W_p)^(1/p) with the kernel power
2+p in place of 3.  Both are boundary-only integrals; W > 0 on the interior
of a convex counterclockwise loop.
"""

import contextvars
import os
import threading
import warnings

import numpy as np

from . import rules
from .curves import Curve, _check_t, sample_chain
from .errors import InvalidArgumentError, real_array, real_number
from .region import Region
from .sbc import finite_values, real_values


# Step in t of the secants that meet at each curve junction in the convexity test
_JUNCTION_STEP = 2.0**-20


class BoundaryLoop(Region):
    """Closed counterclockwise convex chain of curves.

    Convexity is advisory: a warning, not an error, since mildly nonconvex
    loops merely degrade kernel positivity near the boundary.  The closed
    polygon through 128 positions P per curve, t = k/128, must turn left at
    every sample, cross(E_k, E_k+1) >= -1e-14 max(scale, |P|.max()) |E_k|
    for its secants E, and wind once: its turning angles sum to 2 pi within
    pi.  A loop whose angles sum to -2 pi within pi is clockwise, an
    InvalidArgumentError: every point would be outside it.  The tolerance
    grows with the largest coordinate, as the round-off of the positions
    does: on convex polygons, Bezier and parametric loops up to 1e4 scale
    from the origin that round-off stayed below 1e-15 |P|.max(), so such a
    loop passes.
    A reflex corner at a curve junction can be narrower than the turn
    between two of those samples, so each curve's last secant over the step
    _JUNCTION_STEP in t must also turn left into the next curve's first,
    with the longer of the two secants in place of |E_k|: next to an
    endpoint of zero velocity a secant is far shorter than its neighbour, and
    its direction carries the positions' round-off.
    The test is linear in the number of samples, and it samples no velocity,
    so an infinite endpoint velocity does not matter here.
    """

    def __init__(self, curves):
        super().__init__(curves)
        P = sample_chain(self.curves, np.arange(128) / 128.0, velocity=False)[0].reshape(-1, 2)
        E = np.roll(P, -1, axis=0) - P
        F = np.roll(E, -1, axis=0)
        cross = E[:, 0] * F[:, 1] - E[:, 1] * F[:, 0]
        dot = E[:, 0] * F[:, 0] + E[:, 1] * F[:, 1]
        tol = 1e-14 * max(self.scale(), np.abs(P).max())
        right_turn = cross < -tol * np.hypot(E[:, 0], E[:, 1])
        # the last secant of curve i into the first of curve i+1
        h = _JUNCTION_STEP
        J = sample_chain(self.curves, np.array([0.0, h, 1.0 - h, 1.0]), velocity=False)[0]
        E = J[:, 3] - J[:, 2]
        F = np.roll(J[:, 1] - J[:, 0], -1, axis=0)
        longer = np.maximum(np.hypot(E[:, 0], E[:, 1]), np.hypot(F[:, 0], F[:, 1]))
        right_turn_at_junction = E[:, 0] * F[:, 1] - E[:, 1] * F[:, 0] < -tol * longer
        turning = np.arctan2(cross, dot).sum()
        if abs(turning + 2.0 * np.pi) < np.pi:
            raise InvalidArgumentError("boundary loop is clockwise; it must run counterclockwise")
        if right_turn.any() or right_turn_at_junction.any() or abs(turning - 2.0 * np.pi) > np.pi:
            warnings.warn("boundary loop does not look convex", stacklevel=2)

    def samples(self, n_t):
        """Points C, rotated velocities c'_perp and t-weights at n_t Gauss nodes per curve.

        Shapes (m n_t, 2), (m n_t, 2) and (m n_t,), curve by curve in chain
        order, all read-only.  They come from the region's own
        ``boundary_samples`` at the Gauss nodes, so every call after the
        first at this n_t evaluates no curve.  C is a view of them; c'_perp
        is a view too, except for a loop of segments, which keeps one per
        edge, and then it is a copy.
        """
        t_rule = rules.gauss_legendre(n_t)
        C, R, _ = self.boundary_samples(t_rule.nodes)
        R = R.reshape(-1, 2)
        w = np.tile(t_rule.weights, len(self.curves))
        for a in (R, w):
            a.setflags(write=False)
        return C.reshape(-1, 2), R, w


class EggCurve(Curve):
    """Closed egg-shaped oval c(t) = (r cos th, a r sin th / (b + r cos th)),
    th = 2 pi t, with exact derivative."""

    def __init__(self, a=4.0, b=5.0, r=1.0):
        self.a, self.r = real_number(a, "egg a"), real_number(r, "egg r")
        self.b = real_number(b, "egg b", above=abs(self.r))  # b > |r|: a non-degenerate oval

    def position(self, t):
        th = 2.0 * np.pi * _check_t(t)
        a, b, r = self.a, self.b, self.r
        out = np.empty(np.shape(th) + (2,))
        out[..., 0] = r * np.cos(th)
        out[..., 1] = a * r * np.sin(th) / (b + r * np.cos(th))
        return out

    def velocity(self, t):
        th = 2.0 * np.pi * _check_t(t)
        a, b, r = self.a, self.b, self.r
        den = b + r * np.cos(th)
        out = np.empty(np.shape(th) + (2,))
        out[..., 0] = -2.0 * np.pi * r * np.sin(th)
        out[..., 1] = 2.0 * np.pi * a * r * (r + b * np.cos(th)) / den**2
        return out


def egg_domain(a=4.0, b=5.0, r=1.0):
    return BoundaryLoop([EggCurve(a, b, r)])


# Pairs per row block of _scaled_kernel: each thread's four planes of this
# many doubles (2 MB) are allocated once per call and stay in cache, and no
# (N, M) array is ever built.
_BLOCK_PAIRS = 2**16
# Cap on the threads of one _scaled_kernel call, so that its planes stay
# within this many times 2 MB on any host
_MAX_THREADS = 4


def _thread_count(blocks):
    """Threads for this many row blocks: one per CPU the process may use, at most _MAX_THREADS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks, _MAX_THREADS))


def _scaled_kernel(C, R, x, power, W):
    """Kernel sums K @ W (N, k) and each point's nearest-sample distance d (N,).

    K = (c-x).c'_perp * (d / ||c-x||)^power at the M boundary samples C and
    c'_perp R, both (M, 2) (``BoundaryLoop.samples``), for points x (N,2);
    W (M, k) holds per-sample weights, such as the rule weights w and g(c) w.
    The kernel sum W_x = d^-power * (K @ w): factoring d out keeps every
    power at most 1, so nothing overflows for large powers, and K @ w has
    the sign of W_x.

    The kernel works on squared distances r2 = ||c-x||^2: with
    d2 = min r2 and q = d2 / r2, K = q^(power/2) (c-x).c'_perp, where the
    cube (TMVI and p = 1) is q sqrt(q) and any other power one np.power.
    d = sqrt(d2) is bit for bit the minimum of the distances, since a
    correctly rounded sqrt is monotone, so the inside test on d is exact.

    The points are taken in row blocks of about _BLOCK_PAIRS pairs on four
    preallocated planes (dx, dy, the numerator and a temporary), so memory
    does not grow with N.  The blocks run on k threads, the calling thread
    and k - 1 started here, k = min(CPUs this process may run on, blocks,
    _MAX_THREADS), each with its own planes, k x 2 MB in all, allocated
    here before any thread starts; the numpy calls of a block release the
    GIL.  Each thread takes the next unclaimed block until none is left, so
    a thread slowed by other load on its CPU runs fewer blocks instead of
    holding up the call, and the call never waits for more than the blocks
    in flight.  Every thread is joined before the call returns or raises,
    and an exception in any thread reaches the caller.  Every block starts
    at a multiple of its row count whichever thread runs it, so each is
    the same matmul as in one thread, and the result is bit for bit that
    of one thread.  With one thread none is started.  Plain threads, not
    concurrent.futures: importing that module would cost each CLI run
    about 8 ms.
    """
    # contiguous planes: strided columns slow every block pass by 5-10%
    Cx, Cy, Rx, Ry = (np.ascontiguousarray(a) for a in (C[:, 0], C[:, 1], R[:, 0], R[:, 1]))
    sums = np.empty((len(x), W.shape[1]))
    d = np.empty(len(x))
    rows = max(1, _BLOCK_PAIRS // len(Cx))
    blocks = range(0, len(x), rows)
    k = _thread_count(len(blocks))
    planes = np.empty((k, 4, min(rows, len(x)), len(Cx)))
    # every thread takes the next unclaimed block until none is left; the
    # lock makes each claim one step, so no block is skipped or run twice
    starts, claim = iter(blocks), threading.Lock()

    def kernel_rows(own_planes):
        while True:
            with claim:
                i = next(starts, None)
            if i is None:
                return
            xb = x[i:i + rows]
            dx, dy, num, tmp = own_planes[:, :len(xb)]
            np.subtract(Cx, xb[:, :1], out=dx)
            np.subtract(Cy, xb[:, 1:], out=dy)
            np.multiply(dx, Rx, out=num)
            num += np.multiply(dy, Ry, out=tmp)
            r2 = np.multiply(dx, dx, out=dx)
            r2 += np.multiply(dy, dy, out=dy)
            d2 = r2.min(axis=1)
            d[i:i + rows] = np.sqrt(d2)
            # a point on a sample divides 0/0; its NaN row is masked out
            with np.errstate(invalid="ignore"):
                q = np.divide(d2[:, None], r2, out=r2)
            if power == 3.0:
                K = np.sqrt(q, out=dy)
                K *= q
            else:
                K = np.power(q, 0.5 * power, out=q)
            K *= num
            np.matmul(K, W, out=sums[i:i + rows])

    threads, errors = [], []

    def run(own_planes):
        try:
            kernel_rows(own_planes)
        except Exception as exc:  # raised again in the calling thread
            errors.append(exc)

    try:
        for own_planes in planes[1:]:
            # in a copy of the caller's context, so its np.errstate holds there too
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(run, own_planes))
            thread.start()
            threads.append(thread)
        kernel_rows(planes[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return sums, d


def evaluate_masked(loop, x, n_t=256, g=None, p=None):
    """Values and inside mask at points x, one (2,) point or (N,2), from one kernel pass.

    With boundary data g, the mean value interpolant (kernel power 3); with
    p, the Lp-distance field (kernel power 2 + p).  g must be finite at
    every boundary sample, or EvaluationError names the first sample where
    it is not.  Points outside the loop or within 1e-9 scale of its
    boundary get NaN and mask False; final values are computed only for
    the points inside.
    """
    if (g is None) == (p is None):
        raise InvalidArgumentError("give boundary data g or a power p, not both")
    if p is not None:
        p = real_number(p, "p")
        if p < 1.0:
            raise InvalidArgumentError("p must be at least 1, got %r" % (p,))
    x = real_array(x, "points")
    if x.shape == (2,):
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != 2:
        raise InvalidArgumentError("points must be one (2,) point or an (N, 2) array, got shape %s"
                                   % (x.shape,))
    C, R, w = loop.samples(n_t)
    if g is None:
        W = w[:, None]
    else:
        W = np.column_stack([w, finite_values(real_values(g(*C.T), len(C)), *C.T) * w])
    sums, d = _scaled_kernel(C, R, x, 3.0 if p is None else 2.0 + p, W)
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
