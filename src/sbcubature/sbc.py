"""Scaled boundary cubature core.

Each boundary curve c(t) and the scaling center x0 span a curved triangle;
the unit square maps onto it via

    phi(xi, t) = x0 + xi * (c(t) - x0),      J(xi, t) = xi * (c(t)-x0).c'_perp(t)

and summing the per-triangle tensor-rule integrals gives the region integral.
Weights are signed, so nonconvex regions and exterior centers still sum to
the correct value.
"""

from dataclasses import dataclass
from math import ceil

import numpy as np

from . import rules
from .curves import Segment, rotate_minus_90
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


@dataclass(frozen=True)
class PolygonEdgeData:
    """Edge geometry relative to x0: outward normal, foot distance, tangent span."""

    n: np.ndarray      # unit outward normal
    ell: float         # signed distance from x0 to the edge line
    tau1: float        # signed tangential coordinate of the edge start
    tau2: float        # ... and of the edge end
    delta_tau: float   # tau2 - tau1 = edge length for CCW edges


def edge_data(seg, x0):
    d = seg.d
    length = float(np.hypot(*d))
    tau_hat = d / length
    n = np.array([d[1], -d[0]]) / length
    x0 = np.asarray(x0, dtype=float)
    ell = float(np.dot(seg.a - x0, n))
    tau1 = float(np.dot(seg.a - x0, tau_hat))
    tau2 = float(np.dot(seg.b - x0, tau_hat))
    return PolygonEdgeData(n=n, ell=ell, tau1=tau1, tau2=tau2, delta_tau=tau2 - tau1)


def sb_map(tri, xi, t):
    """x0 + xi*(c(t) - x0); broadcasts over matching xi/t arrays."""
    c = tri.curve.position(t)
    return tri.x0 + np.asarray(xi)[..., None] * (c - tri.x0)


def sb_jacobian(tri, xi, t):
    """xi * (c(t)-x0).(c2'(t), -c1'(t))."""
    c = tri.curve.position(t)
    v = tri.curve.velocity(t)
    perp = np.einsum("...i,...i->...", c - tri.x0, rotate_minus_90(v))
    return np.asarray(xi) * perp


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

    Point ordering is (curve, t-node, xi-node).  Segments whose supporting
    line passes through x0 contribute nothing and emit no points.
    """
    if n_xi < 1 or n_t < 1:
        raise InvalidArgumentError("rule sizes must be >= 1")
    x0 = resolve_center(region, policy)
    xi_rule = rules.gauss_legendre(n_xi)
    t_rule = rules.gauss_legendre(n_t)
    xx, tt, ww = rules.tensor_points(rules.tensor(xi_rule, t_rule))
    skip_tol = 1e-14 * region.scale()

    pts, wts, idx = [], [], []
    for i, tri in enumerate(decompose(region, x0)):
        c = tri.curve
        if isinstance(c, Segment):
            ed = edge_data(c, x0)
            if abs(ed.ell) <= skip_tol:
                continue
            jac = xx * (ed.ell * ed.delta_tau)
        else:
            jac = sb_jacobian(tri, xx, tt)
            if np.max(np.abs(jac)) <= skip_tol:
                continue
        pts.append(sb_map(tri, xx, tt))
        wts.append(ww * jac)
        idx.append(np.full(len(ww), i))

    if not pts:
        return CubatureRule(
            points=np.empty((0, 2)), weights=np.empty(0), curve_index=np.empty(0, int)
        )
    return CubatureRule(
        points=np.concatenate(pts),
        weights=np.concatenate(wts),
        curve_index=np.concatenate(idx),
    )


def integrate(region, policy, f, n_xi, n_t):
    """Integral of the scalar field f(x, y) over the region."""
    return generate_rule(region, policy, n_xi, n_t)(f)
