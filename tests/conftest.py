import os

import numpy as np
import pytest
from hypothesis import settings

# CI (GitHub Actions sets CI) prints a @reproduce_failure blob with each
# property-test failure, so a failure seen there can be replayed locally
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def greens_monomial(vertices, i, j):
    """Boundary-integral oracle for the monomial x^i y^j over a polygon.

    Uses the divergence form int x^i y^j dA = oint x^(i+1)/(i+1) y^j dy with
    a high-order Gauss rule per edge; independent of the library under test.
    """
    x, w = np.polynomial.legendre.leggauss(12)
    s = 0.5 * (x + 1.0)
    ws = 0.5 * w
    v = np.asarray(vertices, dtype=float)
    total = 0.0
    for k in range(len(v)):
        a, b = v[k], v[(k + 1) % len(v)]
        xs = a[0] + s * (b[0] - a[0])
        ys = a[1] + s * (b[1] - a[1])
        total += (b[1] - a[1]) * np.sum(ws * xs ** (i + 1) * ys**j) / (i + 1)
    return total


def same_bits(got, want):
    """Equal dtype, shape and bytes: unlike array_equal, -0.0 differs from 0.0 here."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def own_samples(curve, t, x0):
    """C = c(t), c'_perp = (c2', -c1') and (C - x0).c'_perp from the curve's own methods."""
    C = curve.position(t)
    V = curve.velocity(t)
    N = np.stack([V[..., 1], -V[..., 0]], axis=-1)
    return C, N, np.einsum("...i,...i->...", C - x0, N)


def exact_distance(loop, x):
    """Distance from x to the boundary: Newton on d/dt ||x - c(t)||^2 per curve.

    Sixteen uniform seeds per curve plus the endpoints; the second derivative
    uses a central difference of the velocity, so curves only need first
    derivatives.  A test oracle, independent of the fields under test.
    """
    x = np.asarray(x, dtype=float)
    h = 1e-6
    best = np.inf
    for c in loop.curves:
        cand = list(np.linspace(0.0, 1.0, 18))
        seeds = np.linspace(1.0 / 32.0, 1.0 - 1.0 / 32.0, 16)
        for t in seeds:
            for _ in range(50):
                d = x - c.position(t)
                v = c.velocity(t)
                acc = (c.velocity(min(t + h, 1.0)) - c.velocity(max(t - h, 0.0))) / (
                    min(t + h, 1.0) - max(t - h, 0.0)
                )
                F = -2.0 * np.dot(d, v)
                dF = 2.0 * np.dot(v, v) - 2.0 * np.dot(d, acc)
                if dF == 0.0:
                    break
                step = F / dF
                t = min(1.0, max(0.0, t - step))
                if abs(step) < 1e-14:
                    break
            if abs(-2.0 * np.dot(x - c.position(t), c.velocity(t))) < 1e-13 * (
                1.0 + loop.scale() ** 2
            ):
                cand.append(t)
        dists = np.hypot(*(x - c.position(np.array(cand))).T)
        best = min(best, float(dists.min()))
    return best


POLYGON_NAMES = ("convex_quad", "convex_hexagon", "nonconvex_quad", "nonconvex_star")


def function_names():
    from sbcubature import testfns

    return sorted(testfns._FUNCTIONS)


def geometry_names():
    from sbcubature import testfns

    return sorted(testfns._GEOMETRIES)


def rescaled_polygon(name):
    """Polygon translated/scaled into the largest subset of the unit square."""
    from sbcubature.region import polygon
    from sbcubature.testfns import lookup

    v = lookup(name).make().vertices
    lo = v.min(axis=0)
    span = (v.max(axis=0) - lo).max()
    return polygon((v - lo) / span)


def to_physical(element, xi, eta):
    """Bilinear map x = a0 + a1 xi + a2 eta + a3 xi eta of a BilinearElement, shape (..., 2)."""
    a0, a1, a2, a3 = element.a0, element.a1, element.a2, element.a3
    xe = xi * eta
    return np.stack([a0[k] + a1[k] * xi + a2[k] * eta + a3[k] * xe for k in (0, 1)], axis=-1)


def greens_poly(vertices, monomials):
    return sum(c * greens_monomial(vertices, i, j) for (i, j), c in monomials.items())


@pytest.fixture
def unit_square():
    from sbcubature.region import polygon

    return polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
