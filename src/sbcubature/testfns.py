"""Built-in test functions and geometries, addressable by name.

Functions are numpy-vectorized scalar fields f(x, y).  Metadata records
what the acceptance and property tests need: polynomial degree (with the
monomial expansion), homogeneity degree, or singularity location/strength.
"""

from dataclasses import dataclass, field

import numpy as np

from .curves import Bezier, ParametricCurve, RationalBezier, Segment
from .errors import InvalidArgumentError, NotFoundError
from .region import Region, finite_or_nan, polygon
from .tmvi import egg_domain


@dataclass(frozen=True)
class NamedFunction:
    name: str
    field: object
    meta: dict = None


@dataclass(frozen=True)
class NamedGeometry:
    name: str
    make: object  # zero-argument constructor


def _horner(coefficients, t, out):
    """out = sum_k coefficients[k] t^k by Horner's scheme, in place."""
    out[...] = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        out *= t
        out += c
    return out


def _poly_field(monomials):
    """The field sum c x^i y^j over monomials {(i, j): c}, by Horner's scheme.

    Horner in x over Horner polynomials in y, so only multiply-adds run: no
    power of a negative coordinate goes through libm's slow pow, and the
    error stays within about 2 deg u sum |c x^i y^j| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 5.1).
    """
    # rows[i][j] is the coefficient of x^i y^j, zero where no monomial is
    rows = [[0.0] for _ in range(1 + max(i for i, _ in monomials))]
    for (i, j), c in monomials.items():
        rows[i] += [0.0] * (j + 1 - len(rows[i]))
        rows[i][j] = c

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        total = _horner(rows[-1], y, np.empty(shape))
        q = np.empty(shape)
        for row in reversed(rows[:-1]):
            total *= x
            total += _horner(row, y, q)
        return total

    return f


_POLY_MONOMIALS = {
    "p0": {(0, 0): 1.0},
    "p1": {(1, 0): 1.0, (0, 1): -2.0, (0, 0): 1.0},
    "p2": {(2, 0): 3.0, (1, 1): 4.0, (0, 2): -2.0, (1, 0): -1.0, (0, 1): 2.0, (0, 0): -3.0},
    "p3": {
        (3, 0): 4.0, (2, 1): -2.0, (1, 2): -3.0, (0, 3): 1.0,
        (2, 0): 8.0, (1, 1): -4.0, (0, 2): 5.0,
        (1, 0): -6.0, (0, 1): -4.0, (0, 0): 7.0,
    },
    "p4": {
        (4, 0): -3.0, (3, 1): -5.0, (2, 2): 2.0, (1, 3): -9.0, (0, 4): 1.0,
        (3, 0): 3.0, (2, 1): -2.0, (1, 2): -1.0, (0, 3): 5.0,
        (2, 0): 4.0, (1, 1): -7.0, (0, 2): -6.0,
        (1, 0): -4.0, (0, 1): 6.0, (0, 0): -8.0,
    },
    "p5": {
        (5, 0): 10.0, (4, 1): -5.0, (3, 2): -7.0, (2, 3): 6.0, (1, 4): 3.0, (0, 5): 1.0,
        (4, 0): -1.0, (3, 1): 2.0, (2, 2): 11.0, (1, 3): -8.0, (0, 4): -2.0,
        (3, 0): -3.0, (2, 1): 9.0, (1, 2): 8.0, (0, 3): -10.0,
        (2, 0): -9.0, (1, 1): -6.0, (0, 2): 7.0,
        (1, 0): 5.0, (0, 1): -4.0, (0, 0): 4.0,
    },
}


def _franke1(x, y):
    return (
        0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4.0)
        + 0.75 * np.exp(-((9 * x + 1) ** 2) / 49.0 - (9 * y + 1) / 10.0)
        + 0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4.0)
        + 0.2 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2)
    )


def _franke2(x, y):
    return (np.tanh(9.0 * y - 9.0 * x) + 1.0) / 9.0


def _franke3(x, y):
    return (1.25 + np.cos(5.4 * y)) / (6.0 * (1.0 + (3.0 * x - 1.0) ** 2))


def _bump_numerator(x, y):
    return (
        np.exp(-(((x - 0.25) / 0.4) ** 2 + ((y - 0.2) / 0.7) ** 2) ** 2)
        * np.cos(5.0 * x) ** 2
        * np.cos(5.0 * y) ** 2
    )


def _cubic_numerator(x, y):
    # products, not powers: a negative float to the power 3 takes libm's slow pow
    xx, yy = x * x, y * y
    return (
        4 - 2 * x + y - xx + 2 * x * y - 3 * yy
        + 3 * xx * x - 5 * xx * y + 5 * x * yy - 4 * yy * y
    )


def _fs5_numerator_over_r2(x, y):
    # full integrand is (...)/r^3; dividing the degree-2-homogeneous
    # numerator by r^2 leaves a bounded degree-0 factor over r^1
    r = np.sqrt(x * x + y * y)
    num = 2 * x**2 + 2 * y * (y + r) + x * (y + 2 * r)
    return num / (x * x + y * y)


def _r_power(x, y, power):
    return (np.asarray(x) ** 2 + np.asarray(y) ** 2) ** power


_FUNCTIONS = {}
_GEOMETRIES = {}


def _register_fn(name, f, **meta):
    _FUNCTIONS[name] = NamedFunction(name=name, field=f, meta=meta)


def _register_geom(name, make):
    _GEOMETRIES[name] = NamedGeometry(name=name, make=make)


for _name, _mon in _POLY_MONOMIALS.items():
    _register_fn(_name, _poly_field(_mon), degree=int(_name[1:]), monomials=_mon)

_register_fn("fF1", _franke1)
_register_fn("fF2", _franke2)
_register_fn("fF3", _franke3)

# fC1-fC3 are p0, p5 and fF1 under a second name: the same field and metadata
for _alias, _name in (("fC1", "p0"), ("fC2", "p5"), ("fC3", "fF1")):
    _register_fn(_alias, _FUNCTIONS[_name].field, **_FUNCTIONS[_name].meta)
_register_fn(
    "fC4",
    lambda x, y: np.exp(-(((x - 0.4) / 0.3) ** 2 + ((y - 0.5) / 0.4) ** 2) ** 2)
    * np.cos(3.0 * x) ** 2
    * np.cos(8.0 * y) ** 2,
)


def _register_singular(name, numerator, beta, **meta):
    """numerator / ||x||^beta, singular at the origin."""
    _register_fn(name, lambda x, y: numerator(x, y) / _r_power(x, y, 0.5 * beta),
                 singular_xc=(0.0, 0.0), beta=beta, numerator=numerator, **meta)


_register_singular("fS1", _cubic_numerator, 0.5)
_register_singular("fS2", _bump_numerator, 0.5)
_register_singular("fS3", _cubic_numerator, 1.8)
_register_singular("fS4", _bump_numerator, 1.8)
_register_singular("fS5", _fs5_numerator_over_r2, 1.0, homogeneous=-1.0)
_register_singular("fS6", _bump_numerator, 1.0)

_register_fn("g1", lambda x, y: 1.0 - 2.0 * x + 3.0 * y, degree=1)
_register_fn("g2", lambda x, y: np.sin(x) * np.sin(y))


# ---------------------------------------------------------------------------
# geometries

_CONVEX_QUAD = [(0.0, 0.0), (3.0, 0.0), (4.0, 2.0), (1.0, 3.0)]
# six points on an ellipse: convex by construction
_CONVEX_HEX = [
    (2.0 * np.cos(th), 1.5 * np.sin(th))
    for th in np.pi / 18.0 + np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
]
_NONCONVEX_QUAD = [(0.0, 0.0), (2.0, 0.0), (0.5, 0.5), (0.0, 2.0)]


def _star_vertices():
    angles = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    radii = np.where(np.arange(10) % 2 == 0, 1.0, 0.5)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


_SQRT3 = np.sqrt(3.0)

_TRIANGLES = {
    "T1": [(0.0, 0.0), (103 / 400, -99 * _SQRT3 / 400), (-97 / 400, 101 * _SQRT3 / 400)],
    "T2": [(0.0, 0.0), (13 / 40, -9 * _SQRT3 / 40), (-7 / 40, 11 * _SQRT3 / 40)],
    "T3": [(0.0, 0.0), (1.0, 0.0), (0.5, _SQRT3 / 2)],
}


def _bezier_region():
    cps = [
        [(0, 3 / 26), (7 / 26, 9 / 26), (15 / 26, 0), (10 / 13, 3 / 26)],
        [(10 / 13, 3 / 26), (23 / 26, 9 / 26), (15 / 26, 17 / 26), (10 / 13, 23 / 26)],
        [(10 / 13, 23 / 26), (1 / 2, 25 / 26), (5 / 26, 1), (0, 23 / 26)],
        [(0, 23 / 26), (7 / 26, 17 / 26), (5 / 26, 9 / 26), (0, 3 / 26)],
    ]
    return Region([Bezier(cp) for cp in cps])


def _deltoid_region():
    # the natural trigonometric parametrization runs clockwise, so each arc
    # is traversed with parameter i - t (i = 3, 2, 1) to orient the chain
    # counterclockwise
    curves = []
    for i in (3, 2, 1):
        arg = "(%d-t)" % i
        x = "(1+2*cos(2*pi/3*%s))^2/12" % arg
        y = "(1+2*sin(2*pi/3*%s)-4*sin(4*pi/3*%s))/6" % (arg, arg)
        curves.append(ParametricCurve(x, y))
    return Region(curves)


def _circle_region():
    # unit circle from four rational quadratic arcs (exact conic representation)
    w = np.array([1.0, np.sqrt(0.5), 1.0])
    quarters = [
        [(1, 0), (1, 1), (0, 1)],
        [(0, 1), (-1, 1), (-1, 0)],
        [(-1, 0), (-1, -1), (0, -1)],
        [(0, -1), (1, -1), (1, 0)],
    ]
    return Region([RationalBezier(cp, w) for cp in quarters])


def _curved_triangle_t4():
    bez = Bezier([(1.0, 0.0), (7 / 6, _SQRT3 / 6), (1 / 3, _SQRT3 / 3), (0.5, _SQRT3 / 2)])
    return Region(
        [Segment((0.0, 0.0), (1.0, 0.0)), bez, Segment((0.5, _SQRT3 / 2), (0.0, 0.0))]
    )


_register_geom("convex_quad", lambda: polygon(_CONVEX_QUAD))
_register_geom("convex_hexagon", lambda: polygon(_CONVEX_HEX))
_register_geom("nonconvex_quad", lambda: polygon(_NONCONVEX_QUAD))
_register_geom("nonconvex_star", lambda: polygon(_star_vertices()))
for _tname, _verts in _TRIANGLES.items():
    _register_geom(_tname, lambda v=_verts: polygon(v))
_register_geom("T4", _curved_triangle_t4)
_register_geom("bezier", _bezier_region)
_register_geom("deltoid", _deltoid_region)
_register_geom("circle", _circle_region)
_register_geom("egg", egg_domain)


def lookup(name):
    """Registered function or geometry; raises NotFoundError with the catalog."""
    if name in _FUNCTIONS:
        return _FUNCTIONS[name]
    if name in _GEOMETRIES:
        return _GEOMETRIES[name]
    raise NotFoundError(
        "unknown name %r; functions: %s; geometries: %s"
        % (name, ", ".join(sorted(_FUNCTIONS)), ", ".join(sorted(_GEOMETRIES)))
    )


# ---------------------------------------------------------------------------
# crack-tip enriched bilinear element integrands

_XFEM_NODES = {
    "Omega1": np.array([(-1.1, -0.1), (0.0, 0.0), (0.0, 1.0), (-0.9, 0.9)]),
    "Omega2": np.array([(0.0, 0.0), (0.9, 0.1), (1.1, 0.9), (0.0, 1.0)]),
}

_XI_SIGNS = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


class BilinearElement:
    """Four-node quadrilateral with the standard bilinear isoparametric map.

    The map is held in coefficient form x = a0 + a1*xi + a2*eta + a3*xi*eta,
    so its value, Jacobian and inverse are element-wise expressions.
    """

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        s, t = _XI_SIGNS[:, 0:1], _XI_SIGNS[:, 1:2]
        self.a0, self.a1, self.a2, self.a3 = (
            0.25 * (w * self.nodes).sum(axis=0) for w in (1.0, s, t, s * t)
        )

    def _jacobian(self, xi, eta):
        """(dx/dxi, dx/deta, dy/dxi, dy/deta) and the determinant."""
        a1, a2, a3 = self.a1, self.a2, self.a3
        x_xi = a1[0] + a3[0] * eta
        x_eta = a2[0] + a3[0] * xi
        y_xi = a1[1] + a3[1] * eta
        y_eta = a2[1] + a3[1] * xi
        return x_xi, x_eta, y_xi, y_eta, x_xi * y_eta - x_eta * y_xi

    def to_reference(self, x, y):
        """Inverse of the bilinear map in closed form (vectorized).

        With p = x - a0 the map reads p - a2*eta = xi*(a1 + a3*eta), so
        cross(p - a2*eta, a1 + a3*eta) = 0 is a quadratic A eta^2 + B eta + C.
        Its root 2C / (-B - sign(B) sqrt(B^2 - 4AC)) is the one of smaller
        magnitude, which is the one in [-1, 1] for a point inside a convex
        element, and it stays exact as A -> 0 (a parallelogram).  xi follows
        from the larger component of a1 + a3*eta; one Newton step then
        removes the closed form's rounding.  A point so far outside that the
        quadratic has no real root maps to NaN.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        a1, a2, a3 = self.a1, self.a2, self.a3
        px, py = x - self.a0[0], y - self.a0[1]
        A = a3[0] * a2[1] - a3[1] * a2[0]
        B = (px * a3[1] - py * a3[0]) + (a1[0] * a2[1] - a1[1] * a2[0])
        C = px * a1[1] - py * a1[0]
        with np.errstate(invalid="ignore"):
            root = np.sqrt(B * B - 4.0 * A * C)
        eta = 2.0 * C / (-B - np.copysign(root, B))
        # dx/dxi = a1 + a3*eta = u, dx/deta = a2 + a3*xi = v
        ux, uy = a1[0] + a3[0] * eta, a1[1] + a3[1] * eta
        use_x = np.abs(ux) >= np.abs(uy)
        xi = np.where(use_x, px - a2[0] * eta, py - a2[1] * eta) / np.where(use_x, ux, uy)
        vx, vy = a2[0] + a3[0] * xi, a2[1] + a3[1] * xi
        rx = xi * ux + a2[0] * eta - px
        ry = xi * uy + a2[1] * eta - py
        det = ux * vy - vx * uy
        return xi - (vy * rx - vx * ry) / det, eta - (ux * ry - uy * rx) / det


# Element subregions with the discontinuity ray from the tip to the element's
# edge at y = 0.5 inserted as vertices
_XFEM_SPLITS = {
    "Omega1": ([(0.0, 0.5), (0.0, 1.0), (-0.9, 0.9), (-0.98, 0.5)],
               [(-1.1, -0.1), (0.0, 0.0), (0.0, 0.5), (-0.98, 0.5)]),
    "Omega2": ([(0.0, 0.0), (0.9, 0.1), (1.1, 0.9), (0.0, 1.0), (0.0, 0.5)],),
}


def _stiffness_matrix():
    """M (16, 18) with K[i, j] = (M @ F)[4 i + j] for the features F of ``_crack_stiffness``.

    With A = grad xi, B = grad eta and E = eta A + xi B, node I with signs
    (s, t) has grad N_I = (s A + t B + s t E) / 4 and N_I = (1 + s xi + t eta
    + s t xi eta) / 4.  So grad N_I . grad N_J is a fixed form in the six dot
    products of A, B, E, and N_I (h . grad N_J) one in (1, xi, eta, xi eta)
    times h.A, h.B, h.E.  Every entry is a multiple of 1/16, exact.
    """
    s, t = _XI_SIGNS.T
    g = np.column_stack([s, t, s * t])                # grad N_I over (A, B, E)
    n = np.column_stack([np.ones(4), s, t, s * t])    # N_I over (1, xi, eta, xi eta)
    a, b = np.triu_indices(3)
    grad = (g[:, None, a] * g[None, :, b] + g[:, None, b] * g[None, :, a]) * np.where(a == b, 0.5, 1.0)
    conv = n[:, None, :, None] * g[None, :, None, :]
    return np.hstack([grad.reshape(16, 6), conv.reshape(16, 12)]) / 16.0


_STIFFNESS = _stiffness_matrix()


def _frozen(a):
    """a is a read-only array, and so is the array that owns its data."""
    if not isinstance(a, np.ndarray) or a.flags.writeable:
        return False
    owner = a
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    return owner.base is None and not owner.flags.writeable


# One process-wide entry (x, y, elem, xc, K) for the last point set, shared by
# the closures of every xfem_integrands call: one entry per closure set would
# hold the numerators of every set alive at once.  It is found by identity,
# and kept only for read-only x and y (``_frozen``), which no write can change
# under it, such as the coordinate columns of a rule; it is replaced whole, so
# a reader always sees a consistent one.
_last_stiffness = None


def _crack_stiffness(elem, xc, x, y):
    """All sixteen numerators K[i, j] at (x, y): read-only, shape (4, 4) + x.shape.

    K[i, j] = grad N_i . grad N_j r sin(theta/2) + N_i (h . grad N_j), with
    h = (-sin(theta/2), cos(theta/2)) / 2, is ``_STIFFNESS`` @ F for 18
    features F per point.
    """
    global _last_stiffness
    last = _last_stiffness
    if last is not None and last[0] is x and last[1] is y and last[2] is elem and last[3] == xc:
        return last[4]
    px, py = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = px.shape
    px, py = px.ravel(), py.ravel()
    xi, eta = elem.to_reference(px, py)
    x_xi, x_eta, y_xi, y_eta, det = elem._jacobian(xi, eta)
    # A = grad xi and B = grad eta are the rows of inv(J)
    ax, ay = y_eta / det, x_eta / -det
    bx, by = y_xi / -det, x_xi / det

    def along_e(u, v, out):
        """E.w = eta A.w + xi B.w from u = A.w and v = B.w."""
        np.multiply(eta, u, out=out)
        out += xi * v

    rx = px - xc[0]
    ry = py - xc[1]
    half = 0.5 * np.arctan2(ry, rx)
    s = np.sin(half)
    # rows A.A, A.B, A.E, B.B, B.E, E.E times r sin(theta/2) = sqrt(r) F, then
    # (1, xi, eta, xi eta) times h.A, h.B, h.E, where sqrt(r) grad F = h
    F = np.empty((18, len(px)))
    np.multiply(ax, ax, out=F[0])
    F[0] += ay * ay
    np.multiply(ax, bx, out=F[1])
    F[1] += ay * by
    np.multiply(bx, bx, out=F[3])
    F[3] += by * by
    along_e(F[0], F[1], out=F[2])
    along_e(F[1], F[3], out=F[4])
    along_e(F[2], F[4], out=F[5])
    F[:6] *= np.hypot(rx, ry) * s
    hx, hy = -0.5 * s, 0.5 * np.cos(half)
    np.multiply(hx, ax, out=F[6])
    F[6] += hy * ay
    np.multiply(hx, bx, out=F[7])
    F[7] += hy * by
    along_e(F[6], F[7], out=F[8])
    np.multiply(xi, F[6:9], out=F[9:12])
    np.multiply(eta, F[6:9], out=F[12:15])
    np.multiply(xi * eta, F[6:9], out=F[15:18])
    K = (_STIFFNESS @ F).reshape((4, 4) + shape)
    K.setflags(write=False)
    if _frozen(x) and _frozen(y):
        _last_stiffness = (x, y, elem, xc, K)
    return K


_XFEM_ELEMENTS = {name: BilinearElement(nodes) for name, nodes in _XFEM_NODES.items()}


def xfem_integrands(element, dx):
    """Sixteen enriched stiffness integrands for the crack-tip element test.

    Each integrand is the scalar product of the gradient of F*N_I with the
    gradient of N_J, where F = sqrt(r)*sin(theta/2) in polar coordinates
    about the crack tip (dx, 0.5).  Returned as smooth numerators g with
    the 1/sqrt(r) factor split off, i.e. the full integrand is
    g(x, y) / ||x - xc||^(1/2), plus the split geometry and xc.  dx must
    be a finite real number (not a boolean or text), else
    InvalidArgumentError.

    The sixteen fields share one evaluation per point set: the first field
    applied to a set computes all sixteen numerators as one (4, 4, N) array,
    with the inverse bilinear map in closed form, and each field returns its
    row of it while it is applied to the same x and y arrays.  The arrays
    are recognised by identity, and only read-only ones whose data no
    writable array owns are shared, such as the columns a ``CubatureRule``
    hands its fields; writable arrays are evaluated afresh at every call.
    So the fast order is all sixteen fields on one rule before the next
    rule; interleaving rules recomputes the array on every call.
    """
    if element not in _XFEM_NODES:
        raise NotFoundError("unknown element %r" % (element,))
    xc = (finite_or_nan(dx), 0.5)
    if np.isnan(xc[0]):
        raise InvalidArgumentError("dx must be a finite number, got %r" % (dx,))
    elem = _XFEM_ELEMENTS[element]

    def numerator(i, j):
        return lambda x, y: _crack_stiffness(elem, xc, x, y)[i, j]

    fields = [numerator(i, j) for i in range(4) for j in range(4)]
    return [polygon(v) for v in _XFEM_SPLITS[element]], fields, 0.5, np.array(xc)
