"""Benchmark-owned domain descriptions and the boundary oracle.

A domain is a list of curve specs in the CLI's JSON domain format
(``segment``, ``bezier``, ``rational_bezier``, ``parametric``) plus one
extra kind, ``egg``, for the TMVI egg curve.  The oracle evaluates these
specs with its own code, never with the library's curve classes, so a
defect in the library's geometry shows up as a mismatch.

Oracle: for any smooth field f, with F(x, y) = x * int_0^1 f(u x, y) du,

    int_Omega f dA = oint F dy = sum_curves int_0^1 F(c(t)) y'(t) dt,

both integrals by Gauss-Legendre (``numpy.polynomial.legendre``).  For a
polynomial f this is the divergence form oint x^(i+1)/(i+1) y^j dy of
each monomial, exact once the rules are large enough.  Curve derivatives
come from the complex step, which is exact to round-off.
"""

from math import comb

import numpy as np

ORACLE_T_NODES = 160   # Gauss nodes per curve
ORACLE_X_NODES = 40    # Gauss nodes of the inner x-antiderivative
_H = 1e-30             # complex-step size

SQRT3 = np.sqrt(3.0)


def seg(a, b):
    return {"type": "segment", "from": [float(a[0]), float(a[1])], "to": [float(b[0]), float(b[1])]}


def polygon_spec(vertices):
    v = [tuple(map(float, p)) for p in vertices]
    return [seg(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


def _deltoid():
    curves = []
    for i in (3, 2, 1):
        arg = "(%d-t)" % i
        curves.append({
            "type": "parametric",
            "x": "(1+2*cos(2*pi/3*%s))^2/12" % arg,
            "y": "(1+2*sin(2*pi/3*%s)-4*sin(4*pi/3*%s))/6" % (arg, arg),
        })
    return curves


def _circle():
    w = [1.0, float(np.sqrt(0.5)), 1.0]
    quarters = [
        [(1, 0), (1, 1), (0, 1)],
        [(0, 1), (-1, 1), (-1, 0)],
        [(-1, 0), (-1, -1), (0, -1)],
        [(0, -1), (1, -1), (1, 0)],
    ]
    return [{"type": "rational_bezier", "control_points": q, "weights": w} for q in quarters]


def _bezier():
    cps = [
        [(0, 3 / 26), (7 / 26, 9 / 26), (15 / 26, 0), (10 / 13, 3 / 26)],
        [(10 / 13, 3 / 26), (23 / 26, 9 / 26), (15 / 26, 17 / 26), (10 / 13, 23 / 26)],
        [(10 / 13, 23 / 26), (1 / 2, 25 / 26), (5 / 26, 1), (0, 23 / 26)],
        [(0, 23 / 26), (7 / 26, 17 / 26), (5 / 26, 9 / 26), (0, 3 / 26)],
    ]
    return [{"type": "bezier", "control_points": cp} for cp in cps]


def _star():
    ang = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    rad = np.where(np.arange(10) % 2 == 0, 1.0, 0.5)
    return polygon_spec(np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]))


def _hexagon():
    th = np.pi / 18.0 + np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    return polygon_spec(np.column_stack([2.0 * np.cos(th), 1.5 * np.sin(th)]))


# Copies of the library's builtin geometries, written independently so the
# oracle does not read them back from the code under test.
BUILTINS = {
    "convex_quad": polygon_spec([(0, 0), (3, 0), (4, 2), (1, 3)]),
    "convex_hexagon": _hexagon(),
    "nonconvex_quad": polygon_spec([(0, 0), (2, 0), (0.5, 0.5), (0, 2)]),
    "nonconvex_star": _star(),
    "T1": polygon_spec([(0, 0), (103 / 400, -99 * SQRT3 / 400), (-97 / 400, 101 * SQRT3 / 400)]),
    "T2": polygon_spec([(0, 0), (13 / 40, -9 * SQRT3 / 40), (-7 / 40, 11 * SQRT3 / 40)]),
    "T3": polygon_spec([(0, 0), (1, 0), (0.5, SQRT3 / 2)]),
    "T4": [
        seg((0, 0), (1, 0)),
        {"type": "bezier", "control_points": [(1, 0), (7 / 6, SQRT3 / 6), (1 / 3, SQRT3 / 3), (0.5, SQRT3 / 2)]},
        seg((0.5, SQRT3 / 2), (0, 0)),
    ],
    "bezier": _bezier(),
    "deltoid": _deltoid(),
    "circle": _circle(),
    "egg": [{"type": "egg", "a": 4.0, "b": 5.0, "r": 1.0}],
}


def random_star_polygon(rng, k):
    """Polygon star-shaped about the origin, radius in [0.5, 1.5]."""
    gaps = rng.uniform(0.5, 1.5, k)
    ang = np.cumsum(gaps) / gaps.sum() * 2.0 * np.pi + rng.uniform(0, 2 * np.pi)
    rad = rng.uniform(0.5, 1.5, k)
    return polygon_spec(np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]))


def random_bezier_chain(rng, k):
    """Closed chain of cubic Bezier curves around a random star polygon."""
    ang = np.sort(rng.uniform(0, 2 * np.pi, k))
    ang = ang[0] + np.linspace(0, 2 * np.pi, k, endpoint=False) + rng.uniform(-0.3, 0.3, k) * np.pi / k
    rad = rng.uniform(0.7, 1.3, k)
    p = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    curves = []
    for i in range(k):
        a, b = p[i], p[(i + 1) % k]
        jitter = rng.uniform(-0.15, 0.15, (2, 2))
        c1 = a + (b - a) / 3.0 + jitter[0]
        c2 = a + 2.0 * (b - a) / 3.0 + jitter[1]
        curves.append({"type": "bezier", "control_points": [a.tolist(), c1.tolist(), c2.tolist(), b.tolist()]})
    return curves


def random_convex_polygon(rng, k):
    """Convex polygon: points at increasing angles on a random ellipse."""
    gaps = rng.uniform(0.6, 1.4, k)
    ang = np.cumsum(gaps) / gaps.sum() * 2.0 * np.pi
    ax, ay = rng.uniform(0.8, 1.6, 2)
    return polygon_spec(np.column_stack([ax * np.cos(ang), ay * np.sin(ang)]))


def python_expr(src):
    """Expression-language source as numpy-evaluable Python source.

    ``^`` maps to ``**``: both bind tighter than unary minus and group to
    the right, so the two parse the same.
    """
    return src.replace("^", "**")


# the expression-language names the benchmark's own expressions use
_NP_NAMES = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "pi": np.pi}


def np_function(src, variables):
    code = compile(python_expr(src), "<expr>", "eval")

    def f(*args):
        return eval(code, {"__builtins__": {}}, dict(_NP_NAMES, **dict(zip(variables, args))))

    return f


def curve_position(spec):
    """Oracle-side c(t) -> (x, y); accepts complex t for the complex step."""
    kind = spec["type"]
    if kind == "segment":
        a, b = np.array(spec["from"]), np.array(spec["to"])
        return lambda t: (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    if kind in ("bezier", "rational_bezier"):
        cp = np.asarray(spec["control_points"], dtype=float)
        w = np.asarray(spec.get("weights", np.ones(len(cp))), dtype=float)
        n = len(cp) - 1

        def pos(t):
            basis = [comb(n, k) * t**k * (1 - t) ** (n - k) * w[k] for k in range(n + 1)]
            den = sum(basis)
            return (sum(b * cp[k, 0] for k, b in enumerate(basis)) / den,
                    sum(b * cp[k, 1] for k, b in enumerate(basis)) / den)

        return pos
    if kind == "parametric":
        fx, fy = np_function(spec["x"], "t"), np_function(spec["y"], "t")
        return lambda t: (fx(t), fy(t))
    if kind == "egg":
        a, b, r = spec["a"], spec["b"], spec["r"]

        def pos(t):
            th = 2.0 * np.pi * t
            return r * np.cos(th), a * r * np.sin(th) / (b + r * np.cos(th))

        return pos
    raise ValueError("unknown curve type %r" % (kind,))


def curve_degree(spec):
    """Polynomial degree of the curve, or None for rational/transcendental ones."""
    if spec["type"] == "segment":
        return 1
    if spec["type"] == "bezier":
        return len(spec["control_points"]) - 1
    return None


def domain_degree(curves):
    degs = [curve_degree(c) for c in curves]
    return None if None in degs else max(degs)


class BoundarySamples:
    """Gauss nodes on every curve: positions and y'(t) times the weight."""

    def __init__(self, curves, n=ORACLE_T_NODES):
        s, w = np.polynomial.legendre.leggauss(n)
        t = 0.5 * (s + 1.0)
        xs, ys, wy = [], [], []
        for spec in curves:
            pos = curve_position(spec)
            x, y = pos(t)
            _, yc = pos(t + 1j * _H)
            xs.append(np.broadcast_to(x, t.shape))
            ys.append(np.broadcast_to(y, t.shape))
            wy.append(0.5 * w * np.imag(yc) / _H)
        self.x = np.concatenate(xs)
        self.y = np.concatenate(ys)
        self.wy = np.concatenate(wy)
        self.dense = np.column_stack([self.x, self.y])

    def bbox(self):
        return self.dense.min(axis=0), self.dense.max(axis=0)


def oracle_integral(samples, f, x_nodes=ORACLE_X_NODES):
    """int_Omega f dA by the divergence form over the sampled boundary."""
    s, w = np.polynomial.legendre.leggauss(x_nodes)
    u = 0.5 * (s + 1.0)
    X = u[:, None] * samples.x[None, :]
    Y = np.broadcast_to(samples.y, X.shape)
    F = samples.x * (0.5 * w @ np.broadcast_to(np.asarray(f(X, Y), dtype=float), X.shape))
    return float(F @ samples.wy)


def field_scale(samples, f):
    """Magnitude used to make tolerances relative: bbox area times max |f|."""
    lo, hi = samples.bbox()
    g = np.linspace(0.0, 1.0, 17)
    X, Y = np.meshgrid(lo[0] + g * (hi[0] - lo[0]), lo[1] + g * (hi[1] - lo[1]))
    fmax = np.abs(np.broadcast_to(np.asarray(f(X, Y), dtype=float), X.shape)).max()
    return float(np.prod(hi - lo) * max(fmax, 1e-300))
