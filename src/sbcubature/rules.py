"""Gaussian rules on [0,1].

All 1-D rules integrate against the weight function ``xi**eta`` on [0,1]
(``eta = 0`` gives plain Gauss-Legendre).  The weight is absorbed into
the quadrature weights, so consumers evaluate their integrand without
the ``xi**eta`` factor.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gamma

import numpy as np

from .errors import InvalidArgumentError


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


@lru_cache(maxsize=None)
def _gauss_unit(n, eta):
    # Golub-Welsch: eigen-decomposition of the symmetric Jacobi matrix,
    # then the affine map [-1,1] -> [0,1].
    alpha, beta, mu0 = _jacobi_recurrence(n, eta)
    if n == 1:
        x = alpha.copy()
        w = np.array([mu0])
    else:
        T = np.diag(alpha) + np.diag(np.sqrt(beta[1:]), -1) + np.diag(np.sqrt(beta[1:]), 1)
        x, v = np.linalg.eigh(T)
        w = mu0 * v[0, :] ** 2
    nodes = 0.5 * (x + 1.0)
    weights = w * 2.0 ** (-(eta + 1.0))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Rule1D(nodes=nodes, weights=weights)


def gauss_legendre(n):
    """n-point Gauss-Legendre rule on [0,1]."""
    if n < 1:
        raise InvalidArgumentError("rule size must be >= 1, got %r" % (n,))
    return _gauss_unit(int(n), 0.0)


def gauss_jacobi_unit(n, eta):
    """n-point Gauss rule on [0,1] against the weight xi**eta, eta > -1."""
    if n < 1:
        raise InvalidArgumentError("rule size must be >= 1, got %r" % (n,))
    if not eta > -1.0:
        raise InvalidArgumentError(
            "weight exponent must exceed -1 for an integrable weight, got %r" % (eta,)
        )
    return _gauss_unit(int(n), float(eta))
