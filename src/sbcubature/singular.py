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

For polygon edges, three reparametrizations of the tangential coordinate
cancel the (ell^2 + tau^2)^(-beta/2) near-singularity for beta = 1, 2, 3.
"""

import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import rules
from .curves import Segment
from .errors import InvalidArgumentError
from .sbc import assemble_rule, curve_samples


@dataclass(frozen=True)
class GeneralizedSB:
    alpha: float


GAUSS_JACOBI = "gauss-jacobi"


@dataclass(frozen=True)
class SingularSpec:
    """Singularity location plus the chosen radial and tangential strategies."""

    xc: tuple
    radial: object = None          # None | GeneralizedSB(alpha) | GAUSS_JACOBI
    t_transform: object = None     # None | "r1" | "r2" | "r3"


@dataclass(frozen=True)
class SplitIntegrand:
    """The integrand g(x, y) / ||x - xc||^beta with its smooth numerator g."""

    g: object
    beta: float


def select_alpha(beta):
    """Smallest positive integer alpha with alpha*(2 - beta) a positive integer."""
    if not 0.0 < beta < 2.0:
        raise InvalidArgumentError("beta must lie in (0, 2), got %r" % (beta,))
    frac = Fraction(beta).limit_denominator(64)
    if abs(float(frac) - beta) > 1e-12:
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
    eta = alpha * (2.0 - beta) - 1.0
    if eta <= -1.0:
        raise InvalidArgumentError(
            "alpha*(2-beta) must be positive for an integrable radial factor"
        )
    return eta


def t_transform_bounds(ell, tau1, tau2, which):
    """Bounds and inverse map of the tangential reparametrization tau(tau~).

    For an edge at signed distance ell from x0, with ends at tangential
    coordinates tau1 and tau2, returns (lo, hi, tau_of, dtau_of): the
    transformed endpoints and two callables giving tau and dtau/dtau~ at
    transformed coordinates.  All three maps are strictly increasing for
    ell != 0; L = |ell| keeps that true when x0 is on the outward side of
    the edge line.
    """
    if ell == 0.0:
        raise InvalidArgumentError("edge line passes through the singularity")
    L = abs(ell)
    l2 = ell * ell
    if which == "r1":
        def fwd(tau):
            return np.log(tau + np.sqrt(l2 + tau * tau))

        def tau_of(tt):
            return 0.5 * (np.exp(tt) - l2 * np.exp(-tt))

        def dtau_of(tt):
            return 0.5 * (np.exp(tt) + l2 * np.exp(-tt))
    elif which == "r2":
        def fwd(tau):
            return np.arctan(tau / L)

        def tau_of(tt):
            return L * np.tan(tt)

        def dtau_of(tt):
            return L / np.cos(tt) ** 2
    elif which == "r3":
        def fwd(tau):
            return tau / np.sqrt(l2 + tau * tau)

        def tau_of(tt):
            return L * tt / np.sqrt(1.0 - tt * tt)

        def dtau_of(tt):
            return L / (1.0 - tt * tt) ** 1.5
    else:
        raise InvalidArgumentError("unknown t-transform %r" % (which,))
    return fwd(tau1), fwd(tau2), tau_of, dtau_of


def _radial_rule(radial, beta, n_xi):
    """Radial rule (nodes s, weights) of one strategy, singular power folded in."""
    if radial is None:
        r1 = rules.gauss_legendre(n_xi)
        w = r1.weights * r1.nodes ** (1.0 - beta)
        return r1.nodes, w
    if isinstance(radial, GeneralizedSB):
        a = radial.alpha
        if a <= 0:
            raise InvalidArgumentError("generalized-SB alpha must be positive")
        eta = radial_exponent(beta, a)
        r1 = rules.gauss_legendre(n_xi)
        w = r1.weights * a * r1.nodes ** eta
        return r1.nodes ** a, w
    if radial == GAUSS_JACOBI:
        r1 = rules.gauss_jacobi_unit(n_xi, radial_exponent(beta, 1.0))
        return r1.nodes, r1.weights
    raise InvalidArgumentError("unknown radial strategy %r" % (radial,))


def generate_singular_rule(region, spec, beta, n_xi, n_t):
    """Cubature rule for integrands g / ||x - xc||^beta; apply it to g alone.

    The singular power is folded into the weights, so the returned rule is
    applied to the smooth numerator only.
    """
    if n_xi < 1 or n_t < 1:
        raise InvalidArgumentError("rule sizes must be >= 1")
    if spec.t_transform in ("r2", "r3"):
        if not 0.0 < beta <= 3.0:
            raise InvalidArgumentError("beta must lie in (0, 3] with r2/r3")
    elif not 0.0 < beta < 2.0:
        raise InvalidArgumentError(
            "beta must lie in (0, 2) for an integrable singularity"
        )
    x0 = np.asarray(spec.xc, dtype=float)
    s_nodes, s_weights = _radial_rule(spec.radial, beta, n_xi)
    t_rule = rules.gauss_legendre(n_t)
    if spec.t_transform is None:
        idx, C, perp = curve_samples(region, x0, t_rule.nodes)
        D = C - x0
        tw = t_rule.weights * (perp * np.hypot(D[..., 0], D[..., 1]) ** (-beta))
    else:
        idx, C, tw = _transformed_samples(region, x0, spec.t_transform, beta, t_rule)
    return assemble_rule(idx, C, tw, x0, s_nodes, s_weights)


def _warn_caller(message):
    """Warn at the first frame outside the library; the CLI counts as a caller."""
    level, frame = 2, sys._getframe(1)
    name = frame.f_globals.get("__name__", "")
    while name.startswith("sbcubature.") and name != "sbcubature.cli":
        level, frame = level + 1, frame.f_back
        name = frame.f_globals.get("__name__", "")
    warnings.warn(message, stacklevel=level)


def _transformed_samples(region, x0, which, beta, t_rule):
    """Edge indices, C and t-weights with the tangential coordinate reparametrized.

    Gauss nodes are placed in the transformed coordinate; each edge's t-weight
    carries dtau/dtau~ and the boundary factor ell * (ell^2 + tau^2)^(-beta/2).
    """
    idx, Cs, tws = [], [], []
    for i, c in enumerate(region.curves):
        if not isinstance(c, Segment):
            raise InvalidArgumentError("t-transforms require segment edges")
        # unit tangent, outward normal and x0's signed distance to the edge line
        tau_hat = c.d / float(np.hypot(*c.d))
        n = np.array([tau_hat[1], -tau_hat[0]])
        ell = float(np.dot(c.a - x0, n))
        if abs(ell) <= 1e-14 * region.scale():
            # zero-contribution edge through (or numerically through) xc
            _warn_caller("edge through the singularity skipped")
            continue
        tau1 = float(np.dot(c.a - x0, tau_hat))
        tau2 = float(np.dot(c.b - x0, tau_hat))
        lo, hi, tau_of, dtau_of = t_transform_bounds(ell, tau1, tau2, which)
        tt = lo + (hi - lo) * t_rule.nodes
        tau = tau_of(tt)
        bfac = ell * (ell**2 + tau * tau) ** (-0.5 * beta)
        idx.append(i)
        Cs.append(x0 + ell * n + tau[:, None] * tau_hat)
        tws.append(t_rule.weights * (hi - lo) * dtau_of(tt) * bfac)
    n_t = len(t_rule.nodes)
    return np.array(idx, dtype=int), np.reshape(Cs, (-1, n_t, 2)), np.reshape(tws, (-1, n_t))


def integrate_singular(region, f, spec, n_xi, n_t):
    """Integral over the region of f.g(x) / ||x - spec.xc||^f.beta."""
    rule = generate_singular_rule(region, spec, f.beta, n_xi, n_t)
    return rule(f.g)
