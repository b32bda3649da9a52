"""Boundary-only integration of positively homogeneous functions.

For h with h(lambda*x) = lambda^q * h(x) (lambda > 0, q > -2), the region
integral reduces to a pure boundary integral with the scaling center at the
origin:

    int_Omega h dx = 1/(2+q) * sum_i int_0^1 h(c_i(t)) (c_i . c_i'_perp) dt

which needs only t-direction quadrature.  This is the scaled boundary kernel
with a one-node radial rule: s = 1 (the points are the boundary samples
themselves) with weight 1/(2+q), the closed form of int_0^1 s^(1+q) ds.
"""

import functools

import numpy as np

from . import rules
from .errors import InvalidArgumentError, real_number
from .region import decompose
from .sbc import assemble_rule, real_values


@functools.cache  # once, at the first field: importing numpy.random costs 11-18 ms
def _check_points():
    """Rows x, y of 16 points, four per quadrant, and their scale factors lambda, read-only."""
    rng = np.random.default_rng(0)
    signs = np.repeat([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)], 4, axis=0)
    xyl = np.vstack([(signs * rng.uniform(0.2, 1.5, (16, 2))).T, rng.uniform(0.5, 2.0, 16)])
    xyl.setflags(write=False)
    return xyl


class HomogeneousField:
    """Scalar field asserted positively homogeneous of degree q.

    Homogeneity is spot-checked at construction, at four random points in
    each quadrant; it cannot be proven for a black-box callable.  Only the
    points where both sides are finite are compared, so a field undefined
    off the first quadrant, such as x^0.5, passes on the points it has.
    The values are read as every rule reads them (``sbc.real_values``), so a
    field whose values are not real numbers, such as complex, text or None,
    is an InvalidArgumentError here already: None, read as NaN, would pass
    the spot check unseen.
    """

    def __init__(self, h, q):
        self.q = real_number(q, "homogeneity degree", above=-2.0)
        self.h = h
        x, y, lam = _check_points()
        with np.errstate(all="ignore"):
            lhs = real_values(self.h(lam * x, lam * y), len(x))
            rhs = lam**self.q * real_values(self.h(x, y), len(x))
            both = np.isfinite(lhs) & np.isfinite(rhs)
            err = np.abs(lhs - rhs)[both]
            if err.size and err.max() > 1e-10 * (np.abs(rhs[both]).max() + 1e-30):
                raise InvalidArgumentError(
                    "field is not homogeneous of degree %g on random samples" % self.q
                )


def hni_integrate(region, hf, n_t):
    """Boundary-only integral of hf over the region (center fixed at origin)."""
    t = rules.gauss_legendre(n_t)
    x0 = np.zeros(2)
    idx, C, perp = decompose(region, x0, t.nodes)
    rule = assemble_rule(idx, C, t.weights * perp, x0, np.ones(1), np.array([1.0 / (2.0 + hf.q)]))
    return rule(hf.h)
