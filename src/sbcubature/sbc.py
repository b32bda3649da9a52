"""Scaled boundary cubature: one kernel, boundary samples times a radial rule.

Each boundary curve c(t) and the scaling center x0 span a curved triangle;
the unit square maps onto it via

    phi(s, t) = x0 + s * (c(t) - x0),      J(s, t) = s * (c(t)-x0).c'_perp(t)

and summing the per-triangle tensor-rule integrals gives the region
integral.  Every rule family is built the same way: ``curve_samples``
(through ``region.decompose``) gives C = c(t) and (C - x0).c'_perp as
(curve, node) arrays at the t-nodes, shared by all curves or one row per
curve, in one pass per curve class (all segments at once, Bezier and
rational Bezier curves by degree, any other curve on its own), and drops
the curves x0 sees edge-on; the family turns these into t-weights, and
``assemble_rule`` takes the tensor product with a radial rule (nodes s in
[0, 1], weights w_s) in one broadcast.  The families differ only in their
radial rule and their t-nodes:

* regular (``generate_rule``): Gauss-Legendre nodes xi, weights w_xi * xi;
* singular (``singular.generate_singular_rule``): the three radial
  strategies for g / ||x - x0||^beta, and with r1/r2/r3 one row of
  reparametrized t-nodes per edge;
* homogeneous (``hni.hni_integrate``): the single node s = 1 with weight
  1/(2+q), which is how the scheme reduces to HNI for a degree-q field.

Weights are signed, so nonconvex regions and exterior centers still sum to
the correct value.
"""

from dataclasses import dataclass
from math import ceil

import numpy as np

from . import rules
from .errors import EvaluationError, InvalidArgumentError
from .region import NODE_VELOCITY, check_finite, decompose, resolve_center


@dataclass(frozen=True)
class CubatureRule:
    """Physical-space points, signed weights, and the source curve of each point."""

    points: np.ndarray       # (N, 2)
    weights: np.ndarray      # (N,)
    curve_index: np.ndarray  # (N,) int

    def __len__(self):
        return len(self.weights)

    def __call__(self, f):
        """Apply the rule to a scalar field f(x, y)."""
        vals = np.asarray(f(self.points[:, 0], self.points[:, 1]), dtype=float)
        if not np.isfinite(vals).all():
            i = int(np.argmax(~np.isfinite(vals)))
            raise EvaluationError(
                "integrand is not finite at (%r, %r)"
                % (self.points[i, 0], self.points[i, 1]),
                point=tuple(self.points[i]),
            )
        return float(np.dot(self.weights, vals))


def curve_samples(region, x0, t):
    """Curve indices, C and (C - x0).c'_perp at nodes t, for the curves that count.

    t is the nodes (n,) shared by every curve or one row per curve (m, n).
    A curve is skipped when max|(c - x0).c'_perp| <= 1e-14 * scale * max|c'|:
    x0 lies on it (or on its supporting line), so its triangle has no area.
    C and perp are ``decompose``'s arrays with the skipped rows masked out.
    A non-finite c'_perp at a node is an InvalidArgumentError: a NaN would
    fail the skip test and drop the curve silently.
    """
    C, N, perp = decompose(region, x0, t)
    check_finite(N, NODE_VELOCITY)
    tol = 1e-14 * region.scale()
    keep = np.abs(perp).max(axis=1) > tol * np.hypot(N[..., 0], N[..., 1]).max(axis=1)
    if keep.all():
        return np.arange(len(keep)), C, perp
    return np.flatnonzero(keep), C[keep], perp[keep]


def assemble_rule(idx, C, tw, x0, s, w_s):
    """Tensor rule from boundary samples C (m, n, 2), t-weights tw (m, n) and a radial rule.

    idx holds the source curve of each of the m rows.  The points are
    x0 + s * (C - x0) and the weights the outer product of t-weights and
    w_s, ordered (curve, t-node, radial node).
    """
    return CubatureRule(
        points=(x0 + s[:, None] * (C[:, :, None, :] - x0)).reshape(-1, 2),
        weights=(tw[:, :, None] * w_s).ravel(),
        curve_index=np.repeat(idx, tw.shape[1] * len(s)),
    )


def min_orders_polygon(p):
    """Smallest (n_xi, n_t) integrating degree-p polynomials over polygons."""
    if p < 0:
        raise InvalidArgumentError("polynomial degree must be >= 0")
    return ceil((p + 2) / 2), ceil((p + 1) / 2)


def min_orders_curved(m, p):
    """Smallest (n_xi, n_t) for a degree-m polynomial over degree-p curves.

    The pulled-back integrand has xi-degree m+1 and t-degree (m+2)p - 1.
    """
    if m < 0 or p < 1:
        raise InvalidArgumentError("need integrand degree >= 0 and curve degree >= 1")
    return ceil((m + 2) / 2), ceil((m + 2) * p / 2)


def generate_rule(region, policy, n_xi, n_t):
    """Physical cubature rule over the region, n_xi x n_t points per curve.

    Point ordering is (curve, t-node, xi-node).  Curves that x0 sees edge-on
    (see ``curve_samples``) contribute nothing and emit no points.
    """
    x0 = resolve_center(region, policy)
    xi = rules.gauss_legendre(n_xi)
    t = rules.gauss_legendre(n_t)
    idx, C, perp = curve_samples(region, x0, t.nodes)
    return assemble_rule(idx, C, t.weights * perp, x0, xi.nodes, xi.weights * xi.nodes)


def integrate(region, policy, f, n_xi, n_t):
    """Integral of the scalar field f(x, y) over the region."""
    return generate_rule(region, policy, n_xi, n_t)(f)
