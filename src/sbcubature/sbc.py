"""Scaled boundary cubature: one kernel, boundary samples times a radial rule.

Each boundary curve c(t) and the scaling center x0 span a curved triangle;
the unit square maps onto it via

    phi(s, t) = x0 + s * (c(t) - x0),      J(s, t) = s * (c(t)-x0).c'_perp(t)

and summing the per-triangle tensor-rule integrals gives the region
integral.  Every rule family is built the same way: ``boundary_samples``
gives C = c(t) and (C - x0).c'_perp at the t-nodes of each curve, the family
turns these into t-weights, and ``assemble_rule`` takes the tensor product
with a radial rule (nodes s in [0, 1], weights w_s).  The families differ
only in their radial rule:

* regular (``generate_rule``): Gauss-Legendre nodes xi, weights w_xi * xi;
* singular (``singular.generate_singular_rule``): the three radial
  strategies for g / ||x - x0||^beta, optionally on reparametrized t;
* homogeneous (``hni.hni_integrate``): the single node s = 1 with weight
  1/(2+q), which is how the scheme reduces to HNI for a degree-q field.

Weights are signed, so nonconvex regions and exterior centers still sum to
the correct value.
"""

from dataclasses import dataclass
from math import ceil

import numpy as np

from . import rules
from .curves import boundary_samples
from .errors import EvaluationError, InvalidArgumentError
from .region import decompose, resolve_center


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
        bad = ~np.isfinite(vals)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise EvaluationError(
                "integrand is not finite at (%r, %r)"
                % (self.points[i, 0], self.points[i, 1]),
                point=tuple(self.points[i]),
            )
        return float(np.dot(self.weights, vals))


def curve_samples(region, x0, t):
    """(curve index, C, (C - x0).c'_perp) at nodes t, for every curve that counts.

    A curve is skipped when max|(c - x0).c'_perp| <= 1e-14 * scale * max|c'|:
    x0 lies on it (or on its supporting line), so its triangle has no area.
    """
    tol = 1e-14 * region.scale()
    for i, tri in enumerate(decompose(region, x0)):
        C, N, perp = boundary_samples(tri.curve, t, x0)
        if np.max(np.abs(perp)) > tol * np.max(np.hypot(N[:, 0], N[:, 1])):
            yield i, C, perp


def assemble_rule(pieces, x0, s, w_s):
    """Tensor rule from (curve index, C, t-weights) pieces and a radial rule.

    The points are x0 + s * (C - x0) and the weights the outer product of
    t-weights and w_s, ordered (curve, t-node, radial node).
    """
    pts, wts, idx = [], [], []
    for i, C, tw in pieces:
        pts.append((x0 + s[None, :, None] * (C[:, None, :] - x0)).reshape(-1, 2))
        wts.append((tw[:, None] * w_s[None, :]).ravel())
        idx.append(np.full(len(tw) * len(s), i))
    if not pts:
        return CubatureRule(
            points=np.empty((0, 2)), weights=np.empty(0), curve_index=np.empty(0, int)
        )
    return CubatureRule(
        points=np.concatenate(pts),
        weights=np.concatenate(wts),
        curve_index=np.concatenate(idx),
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
    if n_xi < 1 or n_t < 1:
        raise InvalidArgumentError("rule sizes must be >= 1")
    x0 = resolve_center(region, policy)
    xi = rules.gauss_legendre(n_xi)
    t = rules.gauss_legendre(n_t)
    pieces = ((i, C, t.weights * perp) for i, C, perp in curve_samples(region, x0, t.nodes))
    return assemble_rule(pieces, x0, xi.nodes, xi.weights * xi.nodes)


def integrate(region, policy, f, n_xi, n_t):
    """Integral of the scalar field f(x, y) over the region."""
    return generate_rule(region, policy, n_xi, n_t)(f)
