"""Boundary-only integration of positively homogeneous functions.

For h with h(lambda*x) = lambda^q * h(x) (lambda > 0, q > -2), the region
integral reduces to a pure boundary integral with the scaling center at the
origin:

    int_Omega h dx = 1/(2+q) * sum_i int_0^1 h(c_i(t)) (c_i . c_i'_perp) dt

which needs only t-direction quadrature.  This is the scaled boundary kernel
with a one-node radial rule: s = 1 (the points are the boundary samples
themselves) with weight 1/(2+q), the closed form of int_0^1 s^(1+q) ds.
"""

import numpy as np

from . import rules
from .errors import InvalidArgumentError
from .sbc import assemble_rule, curve_samples


class HomogeneousField:
    """Scalar field asserted positively homogeneous of degree q.

    Homogeneity is spot-checked on random samples at construction; it cannot
    be proven for a black-box callable.
    """

    def __init__(self, h, q):
        if not -2.0 < q < np.inf:
            raise InvalidArgumentError("homogeneity degree must be finite and exceed -2")
        self.h = h
        self.q = float(q)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.2, 1.5, 16)
        y = rng.uniform(0.2, 1.5, 16)
        lam = rng.uniform(0.5, 2.0, 16)
        lhs = np.asarray(self.h(lam * x, lam * y), dtype=float)
        rhs = lam**self.q * np.asarray(self.h(x, y), dtype=float)
        scale = np.abs(rhs).max() + 1e-30
        if np.abs(lhs - rhs).max() > 1e-10 * scale:
            raise InvalidArgumentError(
                "field is not homogeneous of degree %g on random samples" % q
            )


def hni_integrate(region, hf, n_t):
    """Boundary-only integral of hf over the region (center fixed at origin)."""
    t = rules.gauss_legendre(n_t)
    x0 = np.zeros(2)
    idx, C, perp = curve_samples(region, x0, t.nodes)
    rule = assemble_rule(idx, C, t.weights * perp, x0, np.ones(1), np.array([1.0 / (2.0 + hf.q)]))
    return rule(hf.h)
