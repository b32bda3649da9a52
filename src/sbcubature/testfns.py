"""Built-in test functions and geometries, addressable by name.

Functions are numpy-vectorized scalar fields f(x, y).  Metadata records
what the acceptance and property tests need: polynomial degree (with the
monomial expansion), homogeneity degree, or singularity location/strength.
"""

from dataclasses import dataclass, field

import numpy as np

from .curves import Bezier, ParametricCurve, RationalBezier, Segment
from .errors import NotFoundError
from .region import Region, polygon
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


def _poly_field(monomials):
    def f(x, y):
        x = np.asarray(x, dtype=float)
        total = np.zeros(np.broadcast(x, y).shape)
        for (i, j), c in monomials.items():
            total += c * x**i * np.asarray(y) ** j
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
    return (
        4 - 2 * x + y - x**2 + 2 * x * y - 3 * y**2
        + 3 * x**3 - 5 * x**2 * y + 5 * x * y**2 - 4 * y**3
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

_register_fn("fC1", _poly_field({(0, 0): 1.0}), degree=0, monomials={(0, 0): 1.0})
_register_fn("fC2", _poly_field(_POLY_MONOMIALS["p5"]), degree=5,
             monomials=_POLY_MONOMIALS["p5"])
_register_fn("fC3", _franke1)
_register_fn(
    "fC4",
    lambda x, y: np.exp(-(((x - 0.4) / 0.3) ** 2 + ((y - 0.5) / 0.4) ** 2) ** 2)
    * np.cos(3.0 * x) ** 2
    * np.cos(8.0 * y) ** 2,
)

_register_fn(
    "fS1",
    lambda x, y: _cubic_numerator(x, y) / _r_power(x, y, 0.25),
    singular_xc=(0.0, 0.0), beta=0.5, numerator=_cubic_numerator,
)
_register_fn(
    "fS2",
    lambda x, y: _bump_numerator(x, y) / _r_power(x, y, 0.25),
    singular_xc=(0.0, 0.0), beta=0.5, numerator=_bump_numerator,
)
_register_fn(
    "fS3",
    lambda x, y: _cubic_numerator(x, y) / _r_power(x, y, 0.9),
    singular_xc=(0.0, 0.0), beta=1.8, numerator=_cubic_numerator,
)
_register_fn(
    "fS4",
    lambda x, y: _bump_numerator(x, y) / _r_power(x, y, 0.9),
    singular_xc=(0.0, 0.0), beta=1.8, numerator=_bump_numerator,
)
_register_fn(
    "fS5",
    lambda x, y: _fs5_numerator_over_r2(x, y) / _r_power(x, y, 0.5),
    singular_xc=(0.0, 0.0), beta=1.0, numerator=_fs5_numerator_over_r2,
    homogeneous=-1.0,
)
_register_fn(
    "fS6",
    lambda x, y: _bump_numerator(x, y) / _r_power(x, y, 0.5),
    singular_xc=(0.0, 0.0), beta=1.0, numerator=_bump_numerator,
)

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

POLYGON_NAMES = ("convex_quad", "convex_hexagon", "nonconvex_quad", "nonconvex_star")


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


def function_names():
    return sorted(_FUNCTIONS)


def geometry_names():
    return sorted(_GEOMETRIES)


def rescaled_polygon(name):
    """Polygon translated/scaled into the largest subset of the unit square."""
    geom = lookup(name)
    reg = geom.make()
    v = reg.vertices
    lo = v.min(axis=0)
    span = (v.max(axis=0) - lo).max()
    return polygon((v - lo) / span)


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
    so its value, Jacobian, inverse and shape functions are element-wise
    expressions.
    """

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        s, t = _XI_SIGNS[:, 0:1], _XI_SIGNS[:, 1:2]
        self.a0, self.a1, self.a2, self.a3 = (
            0.25 * (w * self.nodes).sum(axis=0) for w in (1.0, s, t, s * t)
        )

    def to_physical(self, xi, eta):
        return np.stack(self._map(xi, eta), axis=-1)

    def _map(self, xi, eta):
        a0, a1, a2, a3 = self.a0, self.a1, self.a2, self.a3
        xe = xi * eta
        return (
            a0[0] + a1[0] * xi + a2[0] * eta + a3[0] * xe,
            a0[1] + a1[1] * xi + a2[1] * eta + a3[1] * xe,
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

    def shape_functions(self, xi, eta):
        """N_I and the physical gradients dN_I/dx, dN_I/dy at reference points.

        Three arrays of shape (4,) + xi.shape, one row per node.
        """
        x_xi, x_eta, y_xi, y_eta, det = self._jacobian(xi, eta)
        # rows of inv(J), J = d(x, y)/d(xi, eta): d(xi)/d(x, y), d(eta)/d(x, y)
        xi_x, xi_y = y_eta / det, -x_eta / det
        eta_x, eta_y = -y_xi / det, x_xi / det
        s, t = (w.reshape((4,) + (1,) * np.ndim(xi)) for w in _XI_SIGNS.T)
        fx = 1.0 + s * xi
        fy = 1.0 + t * eta
        n_xi = 0.25 * s * fy
        n_eta = 0.25 * t * fx
        return 0.25 * fx * fy, n_xi * xi_x + n_eta * eta_x, n_xi * xi_y + n_eta * eta_y


def xfem_split_regions(element, dx):
    """Element subregions with the discontinuity ray from (dx, 0.5) inserted."""
    if element == "Omega2":
        v = [(0.0, 0.0), (0.9, 0.1), (1.1, 0.9), (0.0, 1.0), (0.0, 0.5)]
        return [polygon(v)]
    if element == "Omega1":
        upper = [(0.0, 0.5), (0.0, 1.0), (-0.9, 0.9), (-0.98, 0.5)]
        lower = [(-1.1, -0.1), (0.0, 0.0), (0.0, 0.5), (-0.98, 0.5)]
        return [polygon(upper), polygon(lower)]
    raise NotFoundError("unknown element %r" % (element,))


# One process-wide entry (key, K) for the last point set, shared by the
# closures of every xfem_integrands call: one entry per closure set would hold
# the numerators of every set alive at once.  The key holds the element, the
# tip and the bytes of x and y, so a point array changed in place never gets
# a stale K; the entry is replaced whole, so a reader always sees a
# consistent one.
_last_stiffness = None


def _crack_stiffness(elem, xc, x, y):
    """All sixteen numerators K[i, j] at (x, y): read-only, shape (4, 4) + x.shape."""
    global _last_stiffness
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    key = (elem, xc, x.shape, y.shape, x.tobytes(), y.tobytes())
    last = _last_stiffness
    if last is not None and last[0] == key:
        return last[1]
    x, y = np.broadcast_arrays(x, y)
    N, gx, gy = elem.shape_functions(*elem.to_reference(x, y))
    rx = x - xc[0]
    ry = y - xc[1]
    th = np.arctan2(ry, rx)
    s = np.sin(0.5 * th)
    # sqrt(r)*dF/dx = -s/2, sqrt(r)*dF/dy = c/2, sqrt(r)*F = r*s
    b = (-0.5 * s) * gx + (0.5 * np.cos(0.5 * th)) * gy
    K = gx[:, None] * gx[None]
    K += gy[:, None] * gy[None]
    K *= np.hypot(rx, ry) * s
    K += N[:, None] * b[None]
    K.setflags(write=False)
    _last_stiffness = (key, K)
    return K


_XFEM_ELEMENTS = {name: BilinearElement(nodes) for name, nodes in _XFEM_NODES.items()}


def xfem_integrands(element, dx):
    """Sixteen enriched stiffness integrands for the crack-tip element test.

    Each integrand is the scalar product of the gradient of F*N_I with the
    gradient of N_J, where F = sqrt(r)*sin(theta/2) in polar coordinates
    about the crack tip (dx, 0.5).  Returned as smooth numerators g with
    the 1/sqrt(r) factor split off, i.e. the full integrand is
    g(x, y) / ||x - xc||^(1/2), plus the split geometry and xc.

    The sixteen fields share one evaluation per point set: the first field
    applied to a set computes all sixteen numerators as one (4, 4, N) array,
    with the inverse bilinear map in closed form, and each field returns its
    row of it while it is applied to the same points.  So the fast order is
    all sixteen fields on one rule before the next rule; interleaving rules
    recomputes the array on every call.
    """
    if element not in _XFEM_NODES:
        raise NotFoundError("unknown element %r" % (element,))
    xc = (float(dx), 0.5)
    elem = _XFEM_ELEMENTS[element]

    def numerator(i, j):
        return lambda x, y: _crack_stiffness(elem, xc, x, y)[i, j]

    fields = [numerator(i, j) for i in range(4) for j in range(4)]
    return xfem_split_regions(element, dx), fields, 0.5, np.array(xc)
