"""Scaled boundary cubature: one kernel, boundary samples times a radial rule.

Each boundary curve c(t) and the scaling center x0 span a curved triangle;
the unit square maps onto it via

    phi(s, t) = x0 + s * (c(t) - x0),      J(s, t) = s * (c(t)-x0).c'_perp(t)

and summing the per-triangle tensor-rule integrals gives the region
integral.  Every rule family is built the same way: ``region.decompose``
gives C = c(t) and (C - x0).c'_perp as (curve, node) arrays at the
t-nodes, shared by all curves or one row per curve, and drops the curves
x0 sees edge-on.  C and c'_perp do not depend on x0: they come from
``Region.boundary_samples``, which samples a chain of exact segments in
one pass, as a + t d from the edge arrays the region keeps, and any other
chain through each curve's own position and velocity, and keeps them,
read-only, for the Gauss nodes, so a second rule at the same n_t
evaluates no curve and only the product with C - x0 is new.  The family
turns these into t-weights, and ``assemble_rule`` takes the tensor
product with a radial rule (nodes s in [0, 1], weights w_s).

``assemble_rule`` computes the points x0 + s (C - x0) one coordinate plane
at a time, into one C-contiguous (2, m, n, k) array of planes, and the
rule's (N, 2) ``points`` is a read-only view of it: each column is one
contiguous plane, and ``CubatureRule.__call__`` hands every field the same
two column arrays.  A numpy ufunc over (..., 2) points runs its inner loop
over that last axis of length 2, at a call overhead per pair of numbers,
several times slower on the m n k points of a rule than one pass per
plane, and a field given strided columns is slower on every ufunc too.
Each element takes the same IEEE operations either way, so the points are
bit for bit those of the broadcast.  A rule's weighted sum of a field's
values is one ``np.vdot`` for every layout, which reports no floating-point
warning, so no errstate has to be entered per application (see
``CubatureRule.__call__``).

The families differ only in their radial rule and their t-nodes:

* regular (``generate_rule``): Gauss-Legendre nodes xi, weights w_xi * xi;
* singular (``singular.generate_singular_rule``): the three radial
  strategies for g / ||x - x0||^beta, and with r1/r2/r3 one row of
  reparametrized t-nodes per edge;
* homogeneous (``hni.hni_integrate``): the single node s = 1 with weight
  1/(2+q), which is how the scheme reduces to HNI for a degree-q field.

Weights are signed, so nonconvex regions and exterior centers still sum to
the correct value.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import ceil, isfinite

import numpy as np

from . import rules
from .errors import EvaluationError, InvalidArgumentError, real_array, whole_number
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
        """Apply the rule to a scalar field f(x, y): the weighted sum of its values.

        The values are read by ``real_values``, which makes them contiguous,
        and summed by one ``np.vdot``, which reports no floating-point
        warning.  0 * inf and inf - inf are NaN, so a finite sum proves every
        value finite, and ``finite_values``, the search that raises
        EvaluationError at the first non-finite point, runs only when the sum
        is not finite.  If every value is finite the sum overflowed: it is
        returned with one RuntimeWarning, the same on every numpy.
        """
        x, y = self._columns
        vals = real_values(f(x, y), len(x))
        total = float(np.vdot(self.weights, vals))
        if not isfinite(total):
            finite_values(vals, x, y)
            warnings.warn("overflow in the weighted sum of finite field values", RuntimeWarning,
                          stacklevel=2)
        return total

    @cached_property
    def _columns(self):
        """The x and y columns of the points, built once: every field gets the same two arrays."""
        return self.points[:, 0], self.points[:, 1]


def real_values(vals, n):
    """The values of a field at n points as a contiguous float array of shape (n,).

    The values are read by ``errors.real_array``, booleans (an indicator
    field) as 0 and 1.  A field returns one value per point, or a single
    value (shape ()) for a constant field; any other shape is an
    InvalidArgumentError, since it would broadcast against the weights into
    a wrong number.  A contiguous float64 array of shape (n,) is returned as
    it is, not copied; any other layout, such as a column, a reversed or a
    stride-0 array, is copied, so equal values sum alike whatever their layout.
    """
    vals = real_array(vals, "field values", bools=True)
    if vals.shape == (n,):
        return np.ascontiguousarray(vals)
    if vals.shape:
        raise InvalidArgumentError("field values have shape %s, expected (%d,) or ()"
                                   % (vals.shape, n))
    return np.full(n, vals)


def finite_values(vals, x, y):
    """vals if every value is finite; else EvaluationError at the first point that is not.

    The error's ``point`` is that point (x[i], y[i]) as a tuple of floats.
    """
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmin(finite))
        point = (float(x[i]), float(y[i]))
        raise EvaluationError("integrand is not finite at (%r, %r)" % point, point=point)
    return vals


def assemble_rule(idx, C, tw, x0, s, w_s):
    """Tensor rule from boundary samples C (m, n, 2), t-weights tw (m, n) and a radial rule.

    idx holds the source curve of each of the m rows.  The points are
    x0 + s * (C - x0) and the weights the outer product of t-weights and
    w_s, ordered (curve, t-node, radial node).  The points are computed
    into their C-contiguous (2, m, n, k) coordinate planes P, one plane at
    a time, so that each inner loop runs over the radial nodes; P is made
    read-only and ``points`` is the (N, 2) view ``P.reshape(2, -1).T``,
    whose columns are contiguous.
    """
    x0 = np.asarray(x0, dtype=float)
    D = np.subtract(C.transpose(2, 0, 1), x0[:, None, None], order="C")
    P = np.multiply(D[..., None], s, order="C")
    P += x0[:, None, None, None]
    P.setflags(write=False)
    return CubatureRule(
        points=P.reshape(2, -1).T,
        weights=(tw[:, :, None] * w_s).ravel(),
        curve_index=np.repeat(idx, tw.shape[1] * len(s)),
    )


def min_orders_polygon(p):
    """Smallest (n_xi, n_t) integrating degree-p polynomials over polygons."""
    p = whole_number(p, 0, "polynomial degree")
    return ceil((p + 2) / 2), ceil((p + 1) / 2)


def min_orders_curved(m, p):
    """Smallest (n_xi, n_t) for a degree-m polynomial over degree-p curves.

    The pulled-back integrand has xi-degree m+1 and t-degree (m+2)p - 1.
    """
    m = whole_number(m, 0, "integrand degree")
    p = whole_number(p, 1, "curve degree")
    return ceil((m + 2) / 2), ceil((m + 2) * p / 2)


def generate_rule(region, policy, n_xi, n_t):
    """Physical cubature rule over the region, n_xi x n_t points per curve.

    Point ordering is (curve, t-node, xi-node).  Curves that x0 sees edge-on
    (see ``region.decompose``) contribute nothing and emit no points.
    """
    x0 = resolve_center(region, policy)
    xi = rules.gauss_legendre(n_xi)
    t = rules.gauss_legendre(n_t)
    idx, C, perp = decompose(region, x0, t.nodes)
    return assemble_rule(idx, C, t.weights * perp, x0, xi.nodes, xi.weights * xi.nodes)


def integrate(region, policy, f, n_xi, n_t):
    """Integral of the scalar field f(x, y) over the region."""
    return generate_rule(region, policy, n_xi, n_t)(f)
