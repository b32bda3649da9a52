"""Weakly and nearly singular integration of g(x) / ||x - xc||^beta.

Placing the scaling center at the singularity makes the radial distance
factor as r = xi*||c(t) - xc||, so the singular power splits into a pure
xi-power (handled by a radial strategy) and a smooth boundary factor
||c(t) - xc||^(-beta) evaluated in closed form.  Radial strategies:

* ``None`` — plain Gauss-Legendre in xi against the leftover xi^(1-beta).
* ``GeneralizedSB(alpha)`` — substitute xi -> xi^alpha; the radial factor
  becomes alpha*xi^(alpha*(2-beta)-1), a polynomial whenever alpha*(2-beta)
  is a positive integer.
* ``GAUSS_JACOBI`` — absorb xi^(1-beta) into a Gauss-Jacobi weight.

Every strategy takes beta in (0, 2), where xi^(1-beta) is integrable.  A
numerator that vanishes at xc to order k, g = ||x - xc||^k h, is passed
as h with beta - k.

For polygon edges, three reparametrizations of the tangential coordinate
soften the (ell^2 + tau^2)^(-beta/2) near-singularity: r1 cancels it at
beta = 1, and r2 and r3 are the maps that cancel it at beta = 2 and 3,
used here for beta < 2 like r1.
They only move each edge's t-nodes along the edge: every rule samples its
boundary through ``region.decompose`` (one node row per edge here), which
also decides which edges count, and its t-weights are
w dt/dtau~ * (C - xc).c'_perp * ||C - xc||^-beta.
"""

import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import rules
from .errors import InvalidArgumentError, finite_array, finite_point, real_number
from .region import decompose
from .sbc import assemble_rule


@dataclass(frozen=True)
class GeneralizedSB:
    alpha: float

    def __post_init__(self):
        alpha = real_number(self.alpha, "generalized-SB alpha", above=0.0)
        object.__setattr__(self, "alpha", alpha)


GAUSS_JACOBI = "gauss-jacobi"


@dataclass(frozen=True)
class SingularSpec:
    """Singularity location (two finite numbers) plus the radial and tangential strategies."""

    xc: tuple
    radial: object = None          # None | GeneralizedSB(alpha) | GAUSS_JACOBI
    t_transform: object = None     # None | "r1" | "r2" | "r3"

    def __post_init__(self):
        object.__setattr__(self, "xc", finite_point(self.xc, "singularity xc"))
        r, t = self.radial, self.t_transform
        # str first: == on an array would be elementwise
        if not (r is None or isinstance(r, GeneralizedSB)
                or isinstance(r, str) and r == GAUSS_JACOBI):
            raise InvalidArgumentError("unknown radial strategy %r" % (r,))
        if not (t is None or isinstance(t, str) and t in ("r1", "r2", "r3")):
            raise InvalidArgumentError("unknown t-transform %r" % (t,))


@dataclass(frozen=True)
class SplitIntegrand:
    """The integrand g(x, y) / ||x - xc||^beta with its smooth numerator g."""

    g: object
    beta: float


def select_alpha(beta):
    """Smallest positive integer alpha with alpha*(2 - beta) a positive integer."""
    b = real_number(beta, "beta", above=0.0, below=2.0)
    frac = Fraction(b).limit_denominator(64)
    if abs(float(frac) - b) > 1e-12:
        raise InvalidArgumentError(
            "beta %r is not a small-denominator rational; use the Gauss-Jacobi "
            "radial strategy instead" % (beta,)
        )
    den = frac.denominator
    num = frac.numerator
    # alpha*(2*den - num)/den integral  <=>  den | alpha*(2*den - num)
    return den // gcd(den, 2 * den - num)


def radial_exponent(beta, alpha=1.0):
    """Weight exponent eta = alpha*(2-beta) - 1 left in the radial direction."""
    alpha = real_number(alpha, "alpha", above=0.0)
    return _radial_exponent(real_number(beta, "beta", above=0.0, below=2.0), alpha)


def _radial_exponent(beta, alpha):
    return alpha * (2.0 - beta) - 1.0


def t_transform_bounds(ell, tau1, tau2, which):
    """Bounds and inverse map of the tangential reparametrization tau(tau~).

    For an edge at signed distance ell from x0, with ends at tangential
    coordinates tau1 and tau2, returns (lo, hi, tau_of, dtau_of): the
    transformed endpoints and two callables giving tau and dtau/dtau~ at
    transformed coordinates.  All three maps are strictly increasing for
    ell != 0; L = |ell| keeps that true when x0 is on the outward side of
    the edge line.  ell, tau1 and tau2 may be arrays that broadcast against
    each other and against the transformed coordinates, one entry per edge;
    they are read by ``errors.finite_array``, so a NaN or an infinity is an
    InvalidArgumentError naming it.

    r2 and r3 send tau = +-inf to the poles tau~ = +-pi/2 and +-1, and an
    edge with |ell| << |tau| has its nodes next to a pole, where tau~ alone
    would keep too few digits of the distance to it.  So an edge on one side
    of x0's foot (tau1 >= 0 or tau2 <= 0) gets tau~ less the pole on its
    side, computed without cancellation, as lo, hi and the argument of the
    two callables; an edge across the foot keeps tau~.
    r1 has no pole, and its forward map log(tau + sqrt(ell^2 + tau^2)) is
    taken as log L + asinh(tau/L), which does not cancel for tau < 0.
    """
    lo, hi, maps = _t_transform(finite_array(ell, "ell"), finite_array(tau1, "tau1"),
                                finite_array(tau2, "tau2"), which)
    return lo, hi, lambda tt: maps(tt)[0], lambda tt: maps(tt)[1]


def _t_transform(ell, tau1, tau2, which):
    """``t_transform_bounds`` on arrays taken as read: (lo, hi, maps), maps(tt) = (tau, dtau/dtau~).

    One call of maps evaluates the exponentials, or the sine and cosine, once for both.
    """
    L = np.abs(ell)
    if (L == 0.0).any():
        raise InvalidArgumentError("edge line passes through the singularity")
    l2 = ell * ell
    if which in ("r2", "r3"):
        # +1 or -1: the pole on the edge's side of the foot, 0: the edge spans
        # the foot; the formulas below scale by sigma and spans = 1 - |sigma|,
        # exact factors 0 and +-1, to pick their form per edge
        sigma = (np.asarray(tau1) >= 0.0) - (np.asarray(tau2) <= 0.0) * 1.0
        spans = 1.0 - np.abs(sigma)
    if which == "r1":
        log_l = np.log(L)

        def fwd(tau):
            return log_l + np.arcsinh(tau / L)

        def maps(tt):
            up, down = np.exp(tt), l2 * np.exp(-tt)
            return 0.5 * (up - down), 0.5 * (up + down)
    elif which == "r2":
        def fwd(tau):
            # arctan(tau/L) - sigma pi/2 = -sigma arctan(L/|tau|) on the pole's side
            return spans * np.arctan(tau / L) - sigma * np.arctan2(L, np.abs(tau))

        def maps(tt):
            sin, cos = np.sin(tt), np.cos(tt)
            shifted = spans * cos - sigma * sin  # cos(tt + sigma pi/2)
            return L * (spans * sin + sigma * cos) / shifted, L / shifted ** 2
    elif which == "r3":
        def fwd(tau):
            # tau/r - sigma = -sigma L^2 / (r (r + |tau|)) on the pole's side
            r = np.sqrt(l2 + tau * tau)
            return (spans * tau - sigma * l2 / (r + np.abs(tau))) / r

        def maps(tt):
            # 1 - (tt + sigma)^2; one factor is exactly -tt or tt on a pole's side
            square = (1.0 - sigma - tt) * (1.0 + sigma + tt)
            return L * (tt + sigma) / np.sqrt(square), L / square ** 1.5
    else:
        raise InvalidArgumentError("unknown t-transform %r" % (which,))
    return fwd(tau1), fwd(tau2), maps


def _radial_rule(radial, beta, n_xi):
    """Radial rule (nodes s, weights) of one strategy, singular power folded in; beta already read."""
    if radial is None:
        r1 = rules.gauss_legendre(n_xi)
        return r1.nodes, r1.weights * r1.nodes ** (1.0 - beta)
    if isinstance(radial, GeneralizedSB):
        a = radial.alpha
        eta = _radial_exponent(beta, a)
        r1 = rules.gauss_legendre(n_xi)
        return r1.nodes ** a, r1.weights * a * r1.nodes ** eta
    r1 = rules.gauss_jacobi_unit(n_xi, _radial_exponent(beta, 1.0))  # GAUSS_JACOBI
    return r1.nodes, r1.weights


def generate_singular_rule(region, spec, beta, n_xi, n_t):
    """Cubature rule for integrands g / ||x - xc||^beta, 0 < beta < 2; apply it to g alone.

    The singular power is folded into the weights, so the returned rule is
    applied to the smooth numerator only.  With a t-transform every edge is
    sampled at its own row of nodes; an edge that xc sees edge-on (see
    ``region.decompose``) is skipped with one warning per edge.
    """
    beta = real_number(beta, "beta", above=0.0, below=2.0)
    x0 = np.array(spec.xc)
    s_nodes, s_weights = _radial_rule(spec.radial, beta, n_xi)
    t_rule = rules.gauss_legendre(n_t)
    t, tw = t_rule.nodes, t_rule.weights
    if spec.t_transform is not None:
        t, tw, unmapped = _transformed_nodes(region, x0, spec.t_transform, t_rule)
    idx, C, perp = decompose(region, x0, t)
    if spec.t_transform is not None:
        kept = set(idx.tolist())
        for i in range(len(region.curves)):
            if i not in kept:
                _warn_caller("edge through the singularity skipped (curve %d)" % i)
        lost = kept.intersection(unmapped)
        if lost:
            raise InvalidArgumentError(
                "the %s t-transform cannot resolve curve %d: xc is too close to its line"
                % (spec.t_transform, min(lost))
            )
        tw = tw[idx]
    D = C - x0
    tw = tw * (perp * np.hypot(D[..., 0], D[..., 1]) ** (-beta))
    return assemble_rule(idx, C, tw, x0, s_nodes, s_weights)


def _warn_caller(message):
    """Warn at the first frame outside the library; the CLI counts as a caller."""
    level, frame = 2, sys._getframe(1)
    name = frame.f_globals.get("__name__", "")
    while name.startswith("sbcubature.") and name != "sbcubature.cli":
        level, frame = level + 1, frame.f_back
        name = frame.f_globals.get("__name__", "")
    warnings.warn(message, stacklevel=level)


def _transformed_nodes(region, x0, which, t_rule):
    """Node rows t (m, n) and t-weights w dt/dtau~ of a t-transform on every edge.

    In units of the edge length, x0 - a = (t* + i ell) d as complex numbers:
    t* is the parameter of x0's foot on the edge line and |ell| its distance
    from the line, and the tangential coordinate is tau = t - t*.  The Gauss
    nodes are placed in the transformed coordinate tau~ and mapped back to
    t = t* + tau(tau~), with weights w (hi - lo) dtau/dtau~.

    ``decompose`` decides which edges count.  An edge whose line passes
    through x0 (ell = 0) has no map of its own and takes the one for ell = 1:
    its nodes lie on the edge, and the edge is dropped.  Where round-off
    leaves the map without nodes in [0, 1] (ell next to 0), the edge keeps
    the Gauss nodes and is listed in the returned ``unmapped``; a kept one
    is an error.  a and d are the (m, 1, 2) edge arrays the region keeps
    for a chain of segments.
    """
    if region._edges is None:
        raise InvalidArgumentError("t-transforms require segment edges")
    a, d = region._edges
    z = ((x0 - a).view(complex) / d.view(complex))[:, 0]  # (m, 1): t* + i ell
    foot = z.real
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo, hi, maps = _t_transform(z.imag + (z.imag == 0.0), -foot, 1.0 - foot, which)
        width = hi - lo
        tt = lo + width * t_rule.nodes
        tau, dtau = maps(tt)
        t = foot + tau
        tw = t_rule.weights * width * dtau
    if t.min() >= 0.0 and t.max() <= 1.0:  # NaN fails both
        return t, tw, []
    unmapped = np.flatnonzero(~((t >= 0.0) & (t <= 1.0)).all(axis=1))
    t[unmapped] = t_rule.nodes
    return t, tw, unmapped.tolist()


def integrate_singular(region, f, spec, n_xi, n_t):
    """Integral over the region of f.g(x) / ||x - spec.xc||^f.beta."""
    rule = generate_singular_rule(region, spec, f.beta, n_xi, n_t)
    return rule(f.g)
