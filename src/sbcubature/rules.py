"""Gaussian rules on [0,1].

All 1-D rules integrate against the weight function ``xi**eta`` on [0,1]
(``eta = 0`` gives plain Gauss-Legendre).  The weight is absorbed into
the quadrature weights, so consumers evaluate their integrand without
the ``xi**eta`` factor.

Two constructions, chosen by (n, eta) alone:

* Gauss-Legendre with n > ``N0`` nodes: Newton iteration on the Legendre
  three-term recurrence, vectorised over the nonnegative roots and started
  from Tricomi's estimate (in the spirit of Hale & Townsend, SISC 2013).
  Three or four passes converge, plus one for the weights; each costs
  O(n^2), so n = 2048 takes about 80 ms and n = 4096 about 200 ms on one
  core.  Weights are 2 / ((1-x^2) P_n'^2).
  The rule is exactly symmetric about 1/2; nodes agree with Golub-Welsch
  to 2.2e-16, weights to 1e-11 relative (against a 40-digit reference the
  Newton weights are the more accurate), and moments int xi^k, k <= 64,
  hold to 1.4e-14 relative and sum(w) = 1 to 1.1e-15 (every n from 193 to
  1399, every 37th n up to 8200).
* Every other rule (n <= ``N0``, and all Gauss-Jacobi rules, eta != 0):
  Golub-Welsch, a dense eigen-decomposition of the Jacobi matrix, O(n^3).
  ``N0`` = 192 is where the two build times cross (about 6 ms each).
"""

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gamma

import numpy as np

from .errors import InvalidArgumentError
from .region import finite_or_nan

# Legendre rules with more than N0 nodes are built by Newton, the rest by
# Golub-Welsch (see the module docstring)
N0 = 192
_NEWTON_MAX_PASSES = 10
# (n, eta) pairs whose rule _gauss_unit keeps, the least recently used dropped
# first: more than any run builds, but a sweep over continuous eta would
# otherwise keep one rule per value for the life of the process
_RULE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class Rule1D:
    """Nodes/weights exact for polynomials of degree <= 2n-1 against xi**eta."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.nodes)


def _jacobi_recurrence(n, b):
    """Recurrence coefficients for the weight (1+x)**b on [-1,1].

    Classical Jacobi with the (1-x)-exponent fixed at zero.  Returns the
    diagonal, off-diagonal-squared terms, and the zeroth moment.
    """
    alpha = np.zeros(n)
    beta = np.zeros(n)
    mu0 = 2.0 ** (b + 1.0) * gamma(b + 1.0) / gamma(b + 2.0)
    for k in range(n):
        s = 2.0 * k + b
        alpha[k] = 0.0 if b == 0.0 else b * b / (s * (s + 2.0))
        if k > 0:
            beta[k] = (4.0 * k * k * (k + b) ** 2) / (s * s * (s + 1.0) * (s - 1.0))
    return alpha, beta, mu0


def _golub_welsch(n, eta):
    """Nodes and weights on [0,1] from the eigen-decomposition of the
    symmetric Jacobi matrix, then the affine map [-1,1] -> [0,1]."""
    alpha, beta, mu0 = _jacobi_recurrence(n, eta)
    T = np.diag(alpha) + np.diag(np.sqrt(beta[1:]), -1) + np.diag(np.sqrt(beta[1:]), 1)
    x, v = np.linalg.eigh(T)
    w = mu0 * v[0, :] ** 2
    return 0.5 * (x + 1.0), w * 2.0 ** (-(eta + 1.0))


def _legendre_values(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, vectorised over x."""
    # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1} with integer factors: the
    # rounded ratios (2k+1)/(k+1) would bias every weight alike (sum(w) - 1
    # = 3e-15 at n = 4096)
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        p_next = x * p
        p_next *= 2.0 * k + 1.0
        p_prev *= k
        p_next -= p_prev
        p_next /= k + 1.0
        p_prev, p = p, p_next
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


def _newton_legendre(n):
    """Gauss-Legendre nodes and weights on [0,1] by Newton on P_n.

    Only the nonnegative roots are computed, started from Tricomi's
    estimate; the rule is their mirror image, so it is exactly symmetric
    about 1/2.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    for _ in range(_NEWTON_MAX_PASSES):
        p, dp = _legendre_values(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) < 1e-15:
            break
    dp = _legendre_values(n, x)[1]
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)   # 2 / ((1-x^2) P_n'^2), halved for [0,1]
    upper = 0.5 + 0.5 * x[::-1]
    # 1 - upper is exact for upper in [1/2, 1], so nodes[::-1] == 1 - nodes
    nodes = np.concatenate([1.0 - upper[::-1][: n // 2], upper])
    weights = np.concatenate([w[: n // 2], w[::-1]])
    return nodes, weights


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _gauss_unit(n, eta):
    if eta == 0.0 and n > N0:
        nodes, weights = _newton_legendre(n)
    else:
        nodes, weights = _golub_welsch(n, eta)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Rule1D(nodes=nodes, weights=weights)


def whole_number(value, lowest, what):
    """value as an int >= lowest; numpy integers pass, while 2.5, True and NaN do not."""
    try:
        number = operator.index(value)
    except TypeError:
        number = lowest - 1
    if number < lowest or isinstance(value, bool):
        raise InvalidArgumentError("%s must be an integer >= %d, got %r" % (what, lowest, value))
    return number


def gauss_legendre(n):
    """n-point Gauss-Legendre rule on [0,1]."""
    return _gauss_unit(whole_number(n, 1, "rule size"), 0.0)


def gauss_jacobi_unit(n, eta):
    """n-point Gauss rule on [0,1] against the weight xi**eta, eta > -1."""
    n = whole_number(n, 1, "rule size")
    if not finite_or_nan(eta) > -1.0:
        raise InvalidArgumentError(
            "weight exponent must be finite and exceed -1 for an integrable weight, got %r"
            % (eta,)
        )
    return _gauss_unit(n, float(eta))
