"""The four workloads: seeded inputs, one operation at a time, checked results.

Each workload builds everything it needs in ``__init__`` (the set-up that
``setup_s`` measures), then yields an endless, seed-determined stream of
blocks of operations from ``ops()``.  ``execute(op)`` is the timed call
into the library; ``check(op, result)`` is not timed.  A block holds the
workload's whole input mix once, and its parameters are stratified (one
draw per stratum, shuffled), so two seeds give different operations but
the same mix, which keeps the medians of different seeds close.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np

import geometry as G

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
OUT = os.path.join(ROOT, ".perfbench_out")

RTOL = 1e-9  # smooth-path checks, relative to bbox area * max |f|


def stratified(rng, k):
    """k draws in [0, 1), one from each of k equal strata, in random order."""
    return rng.permutation((np.arange(k) + rng.random(k)) / k)


class Strata:
    """One stream of stratified draws per key.

    The i-th group of ``size`` draws for a key holds one draw from each of
    ``size`` equal strata, so every parameter of every op kind covers its
    range evenly within a run, whatever the seed.
    """

    def __init__(self, rng):
        self.rng = rng
        self.left = {}

    def draw(self, key, size):
        if not self.left.get(key):
            self.left[key] = list(stratified(self.rng, size))
        return self.left[key].pop()

    def index(self, key, n):
        return int(self.draw(key, n) * n)


def in_range(u, lo, hi):
    """Integer in [lo, hi] from u in [0, 1)."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def digest(value):
    """Bit-exact fingerprint of a result, for the determinism self-check."""
    h = hashlib.sha256()
    if isinstance(value, str):
        h.update(value.encode())
    elif np.ndim(value) == 0:
        h.update(struct.pack("<d", float(value)))
    else:
        h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    return h.hexdigest()[:16]


def library_curve(spec):
    from sbcubature import Bezier, ParametricCurve, RationalBezier, Segment
    from sbcubature.tmvi import EggCurve

    kind = spec["type"]
    if kind == "segment":
        return Segment(spec["from"], spec["to"])
    if kind == "bezier":
        return Bezier(spec["control_points"])
    if kind == "rational_bezier":
        return RationalBezier(spec["control_points"], spec["weights"])
    if kind == "parametric":
        return ParametricCurve(spec["x"], spec["y"])
    return EggCurve(spec["a"], spec["b"], spec["r"])


class _Untraced:
    def wrap_field(self, f, layer):
        return f


# -- smooth -------------------------------------------------------------

POLY_EXPR = "x^3*y - 2*x*y^2 + 1"
SMOOTH_EXPRS = ("sin(x)*cos(y) + x^2*y", "exp(-(x^2+y^2))", "1/(3+x^2+y)")
# homogeneous polynomials by degree q, for HNI
HNI_EXPRS = ("1", "2*x - y", "x^2 - 3*x*y + 2*y^2", "x^3 + x*y^2 - 2*y^3", "x^4 - 2*x^2*y^2 + 3*x*y^3")

# Orders below which a non-exact (domain, field) pair misses RTOL for some
# center: the smallest n with n_xi = n_t = n that met 1e-10 for all four
# centers on the seed code, plus 3.  Polynomial fields on polygons and
# Bezier domains use the exact minimum orders instead.
POLY_FLOOR = {"circle": 13, "deltoid": 16, "egg": 31}
SMOOTH_FLOOR = {
    "convex_quad": 25, "convex_hexagon": 25, "nonconvex_quad": 16, "nonconvex_star": 18,
    "T1": 10, "T2": 10, "T3": 11, "T4": 13, "bezier": 11,
    "deltoid": 20, "circle": 17, "egg": 32, "random": 20,
}
# fF2 (a tanh ridge) is left out: with an exterior center it misses 1e-9
# at some orders up to 48 on every domain
FRANKE_FLOOR = {
    "T1": {"fF1": 18, "fF3": 17},
    "T2": {"fF1": 19, "fF3": 18},
    "T3": {"fF1": 24, "fF3": 25},
    "T4": {"fF1": 26, "fF3": 24},
    "bezier": {"fF1": 29, "fF3": 22},
}
SMOOTH_BUILTINS = ("convex_quad", "convex_hexagon", "nonconvex_quad", "nonconvex_star",
                   "T1", "T2", "T3", "T4", "bezier", "circle", "deltoid", "egg")
CENTERS = ("vertex_average", "origin", "vertex", "exterior")


def exact_orders(m, p):
    """Smallest (n_xi, n_t) exact for degree-m polynomials over degree-p curves."""
    n_xi = -(-(m + 2) // 2)
    n_t = -(-(m + 1) // 2) if p == 1 else -(-(m + 2) * p // 2)
    return max(n_xi, 2), max(n_t, 2)


class Domain:
    def __init__(self, name, spec, region):
        self.name = name
        self.spec = spec
        self.region = region
        self.samples = G.BoundarySamples(spec)
        self.degree = G.domain_degree(spec)
        lo, hi = self.samples.bbox()
        diag = float(np.hypot(*(hi - lo)))
        self.exterior = (float(hi[0] + 0.5 * diag), float(lo[1] - 0.3 * diag))
        self.floor_key = name if name in SMOOTH_FLOOR else "random"

    def floors(self, field):
        """(n_xi, n_t) floors for a field kind, or None when not checkable."""
        kind, arg = field
        if kind == "poly":
            if self.degree is None:
                f = POLY_FLOOR[self.name]
                return f, f
            return exact_orders(arg, self.degree)
        if kind == "expr":
            f = SMOOTH_FLOOR[self.floor_key]
            return f, f
        f = FRANKE_FLOOR.get(self.name, {}).get(arg)
        return None if f is None else (f, f)


class Smooth:
    """generate_rule + one field, or (one op in five) hni_integrate."""

    name = "smooth"

    def __init__(self, seed, tracer=None):
        from sbcubature import Region, rules, testfns

        self.tracer = tracer or _Untraced()
        rng = np.random.default_rng([seed, 1])
        specs = {n: G.BUILTINS[n] for n in SMOOTH_BUILTINS}
        regions = {n: testfns.lookup(n).make() for n in SMOOTH_BUILTINS}
        # vertex and curve counts are fixed, so every seed costs the same
        for i, (k_star, k_chain) in enumerate(((6, 3), (11, 6))):
            specs["star%d" % i] = G.random_star_polygon(rng, k_star)
            specs["bezchain%d" % i] = G.random_bezier_chain(rng, k_chain)
        for n, s in specs.items():
            if n not in regions:
                regions[n] = Region([library_curve(c) for c in s])
        self.domains = {n: Domain(n, specs[n], regions[n]) for n in specs}
        self.names = sorted(self.domains)

        # field id -> (kind, arg, oracle callable, library field or None for
        # an expression the op compiles itself)
        fields = {}
        for k in range(6):
            f = testfns.lookup("p%d" % k).field
            fields["p%d" % k] = ("poly", k, f, f)
        fields[POLY_EXPR] = ("poly", 4, G.np_function(POLY_EXPR, "xy"), None)
        for src in SMOOTH_EXPRS:
            fields[src] = ("expr", src, G.np_function(src, "xy"), None)
        for name in ("fF1", "fF3"):
            f = testfns.lookup(name).field
            fields[name] = ("franke", name, f, f)
        self.fields = fields

        self.refs = {}      # (domain, field) -> (value, tolerance, floors)
        self.eligible = {}  # domain -> field ids it can be checked on
        for dn, dom in self.domains.items():
            self.eligible[dn] = []
            for fid, (kind, arg, fo, _) in fields.items():
                fl = dom.floors((kind, arg))
                if fl is None:
                    continue
                self.eligible[dn].append(fid)
                self.refs[dn, fid] = (G.oracle_integral(dom.samples, fo),
                                      RTOL * G.field_scale(dom.samples, fo), fl)
            for q, src in enumerate(HNI_EXPRS):
                fo = G.np_function(src, "xy")
                fl = dom.floors(("poly", q))
                self.refs[dn, ("hni", q)] = (G.oracle_integral(dom.samples, fo),
                                             RTOL * G.field_scale(dom.samples, fo), fl)
        for n in range(1, 65):  # warm the 1-D rule cache: users of a long-lived process see it warm
            rules.gauss_legendre(n)
        self.seed = seed

    def ops(self):
        rng = np.random.default_rng([self.seed, 2])
        st = Strata(rng)
        while True:
            # every domain once with a field, four HNI ops: one in five is HNI
            block = []
            for dn in self.names:
                eligible = self.eligible[dn]
                fid = eligible[st.index(("field", dn), len(eligible))]
                f_xi, f_t = self.refs[dn, fid][2]
                block.append({
                    "kind": "rule", "domain": dn, "field": fid,
                    "center": CENTERS[st.index(("center", dn), len(CENTERS))],
                    "vertex": st.index(("vertex", dn), len(self.domains[dn].spec)),
                    "n_xi": in_range(st.draw(("n_xi", dn), 8), f_xi, 48),
                    "n_t": in_range(st.draw(("n_t", dn), 8), f_t, 64),
                })
            for k in range(4):
                dn = self.names[st.index("hni_domain", len(self.names))]
                q = st.index("hni_q", len(HNI_EXPRS))
                f_t = self.refs[dn, ("hni", q)][2][1]
                block.append({"kind": "hni", "domain": dn, "q": q,
                              "n_t": in_range(st.draw("hni_n_t", 8), f_t, 64)})
            yield [block[i] for i in rng.permutation(len(block))]

    def _policy(self, op, dom):
        from sbcubature import CenterPolicy

        c = op["center"]
        if c == "vertex_average":
            return CenterPolicy.VERTEX_AVERAGE
        if c == "origin":
            return CenterPolicy.ORIGIN
        if c == "vertex":
            return CenterPolicy.vertex(op["vertex"])
        return CenterPolicy.custom(dom.exterior)

    def _field(self, fid):
        from sbcubature import exprlang

        lib = self.fields[fid][3]
        if lib is not None:
            return self.tracer.wrap_field(lib, "testfns")
        return self.tracer.wrap_field(exprlang.compile_field(fid), "exprfield")

    def execute(self, op):
        from sbcubature import exprlang, hni, sbc

        dom = self.domains[op["domain"]]
        if op["kind"] == "hni":
            h = self.tracer.wrap_field(exprlang.compile_field(HNI_EXPRS[op["q"]]), "exprfield")
            return hni.hni_integrate(dom.region, hni.HomogeneousField(h, op["q"]), op["n_t"])
        rule = sbc.generate_rule(dom.region, self._policy(op, dom), op["n_xi"], op["n_t"])
        return rule(self._field(op["field"]))

    def check(self, op, value):
        key = (op["domain"], ("hni", op["q"]) if op["kind"] == "hni" else op["field"])
        ref, tol, _ = self.refs[key]
        return abs(value - ref) <= tol


# -- singular -------------------------------------------------------------

CRACK_RADIALS = ("jacobi", "gsb", "plain")
TRANSFORMS = ("r1", "r2", "r3")
FS_NAMES = ("fS1", "fS2", "fS3", "fS4", "fS5", "fS6")


def crack_tolerance(radial, transform, n):
    """Relative l1 error allowed for the 16-integrand suite.

    Ten times the worst error over Omega1/Omega2 and dx in {1e-3, 1e-2,
    1e-1} on the seed code.  Only Gauss-Jacobi or generalized SB with r1
    converge fast on this geometry; the others are held to their plateau.
    """
    if transform == "r1":
        if radial == "plain":
            return 3e-3
        return max(1e-6 * 10.0 ** (8 - n), 1e-12)
    return 3e-2 if transform == "r2" else 1e-1


def fs_tolerance(n):
    """Relative error allowed for fS1-fS6 on T1-T3 (Gauss-Jacobi + r1, beta <= 1.6)."""
    return 5e-3 * 10.0 ** (-(n - 16) / 4.0)


class Singular:
    """The crack-tip suite (criterion 9, generalized), plus fS1-fS6 one op in four."""

    name = "singular"

    def __init__(self, seed, tracer=None):
        from sbcubature import GAUSS_JACOBI, SingularSpec, SplitIntegrand, integrate_singular, testfns

        self.tracer = tracer or _Untraced()
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        # finite pool of (element, dx); references by Gauss-Jacobi + r1 at n = 24,
        # which agrees with n = 64 to 1e-15 on the seed code
        self.pool = []
        # the cost of an op moves with dx (by up to 1.8x), so the pool holds one
        # dx per quarter of the range, in order, with a fixed element for each
        for k, u in enumerate(np.sort(stratified(rng, 4))):
            element = ("Omega2", "Omega1")[k % 2]
            dx = float(1e-3 * 100.0 ** u)
            regions, fields, beta, xc = testfns.xfem_integrands(element, dx)
            fields = [self.tracer.wrap_field(g, "testfns") for g in fields]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref = self._crack(regions, fields, beta, SingularSpec(tuple(xc), GAUSS_JACOBI, "r1"), 24)
            self.pool.append((regions, fields, beta, tuple(xc), ref))
        self.betas = [float(0.2 + 1.4 * u) for u in np.sort(stratified(rng, 4))]
        self.fs_refs = {}
        for name in FS_NAMES:
            g = testfns.lookup(name).meta["numerator"]
            for tri in ("T1", "T2", "T3"):
                reg = testfns.lookup(tri).make()
                for j, beta in enumerate(self.betas):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        ref = integrate_singular(reg, SplitIntegrand(g, beta),
                                                 SingularSpec((0.0, 0.0), GAUSS_JACOBI, "r1"), 40, 48)
                    self.fs_refs[name, tri, j] = ref
        self.fs_regions = {t: testfns.lookup(t).make() for t in ("T1", "T2", "T3")}
        self.fs_numerators = {n: self.tracer.wrap_field(testfns.lookup(n).meta["numerator"], "testfns")
                              for n in FS_NAMES}
        self.skipped = 0

    @staticmethod
    def _crack(regions, fields, beta, spec, n):
        from sbcubature import generate_singular_rule

        vals = np.zeros(len(fields))
        for reg in regions:
            rule = generate_singular_rule(reg, spec, beta, n, n)
            vals += np.array([rule(g) for g in fields])
        return vals

    def ops(self):
        rng = np.random.default_rng([self.seed, 2])
        st = Strata(rng)
        while True:
            # every (radial, transform) pair once, three fS ops: one in four is fS.
            # The orders, which set the cost (n^2 points), are stratified across
            # the ops of a block, so every block costs about the same.
            block = []
            crack_n = iter(stratified(rng, len(CRACK_RADIALS) * len(TRANSFORMS)))
            for radial in CRACK_RADIALS:
                for transform in TRANSFORMS:
                    block.append({"kind": "crack", "pool": st.index("pool", len(self.pool)),
                                  "radial": radial, "transform": transform,
                                  "n": in_range(next(crack_n), 8, 32)})
            for u in stratified(rng, 3):
                block.append({"kind": "fs", "f": FS_NAMES[st.index("f", len(FS_NAMES))],
                              "tri": ("T1", "T2", "T3")[st.index("tri", 3)],
                              "beta": st.index("beta", len(self.betas)),
                              "n": in_range(u, 16, 32)})
            yield [block[i] for i in rng.permutation(len(block))]

    def execute(self, op):
        from sbcubature import GAUSS_JACOBI, GeneralizedSB, SingularSpec, SplitIntegrand, integrate_singular, select_alpha

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if op["kind"] == "fs":
                beta = self.betas[op["beta"]]
                spec = SingularSpec((0.0, 0.0), GAUSS_JACOBI, "r1")
                out = integrate_singular(self.fs_regions[op["tri"]],
                                         SplitIntegrand(self.fs_numerators[op["f"]], beta),
                                         spec, op["n"], op["n"])
            else:
                regions, fields, beta, xc, _ = self.pool[op["pool"]]
                radial = {"jacobi": GAUSS_JACOBI, "plain": None}.get(op["radial"])
                if op["radial"] == "gsb":
                    radial = GeneralizedSB(select_alpha(beta))
                out = self._crack(regions, fields, beta, SingularSpec(xc, radial, op["transform"]), op["n"])
        self.skipped += sum("skipped" in str(w.message) for w in caught)
        return out

    def check(self, op, value):
        if op["kind"] == "fs":
            ref = self.fs_refs[op["f"], op["tri"], op["beta"]]
            return abs(value - ref) <= fs_tolerance(op["n"]) * abs(ref)
        ref = self.pool[op["pool"]][-1]
        err = np.abs(value - ref).sum() / np.abs(ref).sum()
        return bool(err <= crack_tolerance(op["radial"], op["transform"], op["n"]))


# -- fields -------------------------------------------------------------

PAIR_CAP = 3_000_000   # evaluation points x boundary nodes per call (memory bound)
SHRINK = 0.75          # points lie inside the loop scaled by this about its centroid
FIELD_NTS = (128, 256, 512, 1024)
FIELD_GRIDS = (40, 64, 88, 112, 136, 160)


def interior_points(samples, lo, hi, grid):
    """Cell centres of a grid x grid lattice inside the loop shrunk by SHRINK.

    The loop is star-shaped about the centroid of its samples, so inside
    means a radius below SHRINK times the boundary radius at that angle.
    """
    x0 = samples.dense.mean(axis=0)
    d = samples.dense - x0
    ang, rad = np.arctan2(d[:, 1], d[:, 0]), np.hypot(d[:, 0], d[:, 1])
    o = np.argsort(ang)
    ang = np.concatenate([ang[o][-1:] - 2 * np.pi, ang[o], ang[o][:1] + 2 * np.pi])
    rad = np.concatenate([rad[o][-1:], rad[o], rad[o][:1]])
    xs = lo[0] + (np.arange(grid) + 0.5) * (hi[0] - lo[0]) / grid
    ys = lo[1] + (np.arange(grid) + 0.5) * (hi[1] - lo[1]) / grid
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    q = pts - x0
    keep = np.hypot(q[:, 0], q[:, 1]) < SHRINK * np.interp(np.arctan2(q[:, 1], q[:, 0]), ang, rad)
    return pts[keep]


class Fields:
    """tmvi_eval_many or lp_distance_many over an interior point set."""

    name = "fields"

    def __init__(self, seed, tracer=None):
        from sbcubature import BoundaryLoop, tmvi, testfns

        self.tracer = tracer or _Untraced()
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        specs = {n: G.BUILTINS[n] for n in ("egg", "circle", "convex_hexagon")}
        loops = {"egg": tmvi.egg_domain(),
                 "circle": BoundaryLoop(testfns.lookup("circle").make().curves),
                 "convex_hexagon": BoundaryLoop(testfns.lookup("convex_hexagon").make().curves)}
        for i, k in enumerate((5, 9)):
            specs["convex%d" % i] = G.random_convex_polygon(rng, k)
            loops["convex%d" % i] = BoundaryLoop([library_curve(c) for c in specs["convex%d" % i]])
        self.loops = loops
        self.names = sorted(loops)
        self.grids = FIELD_GRIDS
        self.points = {}
        for n in self.names:
            s = G.BoundarySamples(specs[n])
            lo, hi = s.bbox()
            for grid in self.grids:
                self.points[n, grid] = interior_points(s, lo, hi, grid)
            for n_t in FIELD_NTS:
                loops[n].samples(n_t)

    def ops(self):
        rng = np.random.default_rng([self.seed, 2])
        st = Strata(rng)
        while True:
            # every loop once with each kind
            block = []
            for name in self.names:
                # the single-curve egg needs n_t >= 256 for 1e-10 linear reproduction
                nts = FIELD_NTS[1:] if name == "egg" else FIELD_NTS
                for kind in ("tmvi", "lp"):
                    op = {"kind": kind, "loop": name,
                          "grid": self.grids[st.index(("grid", name, kind), len(self.grids))],
                          "n_t": nts[st.index(("n_t", name, kind), len(nts))]}
                    if kind == "tmvi":
                        op["g"] = [float(v) for v in rng.uniform(-3, 3, 3)]
                    else:
                        op["p"] = (1.0, 10.0, 100.0)[st.index(("p", name), 3)]
                    block.append(op)
            yield [block[i] for i in rng.permutation(len(block))]

    def _points(self, op):
        """The op's point set, thinned evenly to at most PAIR_CAP kernel pairs."""
        loop = self.loops[op["loop"]]
        pts = self.points[op["loop"], op["grid"]]
        cap = PAIR_CAP // (op["n_t"] * len(loop.curves))
        if len(pts) > cap:
            pts = pts[np.linspace(0, len(pts) - 1, cap).astype(int)]
        return loop, pts

    def execute(self, op):
        from sbcubature import tmvi

        loop, pts = self._points(op)
        if op["kind"] == "lp":
            return tmvi.lp_distance_many(loop, pts, op["p"], op["n_t"])
        a, b, c = op["g"]
        g = self.tracer.wrap_field(lambda x, y: a + b * x + c * y, "benchfield")
        return tmvi.tmvi_eval_many(loop, g, pts, op["n_t"])

    def check(self, op, value):
        _, pts = self._points(op)
        if value.shape != (len(pts),):
            return False
        if op["kind"] == "lp":
            return bool(np.all(np.isfinite(value)) and np.all(value > 0.0))
        a, b, c = op["g"]
        exact = a + b * pts[:, 0] + c * pts[:, 1]
        return bool(np.abs(value - exact).max() <= 1e-10 * max(1.0, np.abs(exact).max()))


# -- cli ------------------------------------------------------------------

CLI_PAIR_CAP = 3_000_000   # grid^2 x boundary nodes: keeps one child near 300 MB
CLI_ROWS_CAP = 20_000      # rows printed by one `rule` command
CLI_DOMAINS = ("builtin:convex_quad", "builtin:T4", "builtin:bezier", "builtin:circle",
               "builtin:deltoid", "star.json", "bezchain.json", "ellipse.json")
CLI_LOOPS = ("builtin:egg", "builtin:circle", "builtin:convex_hexagon", "convex.json")
CLI_POLYS = ("p0", "p1", "p2", "p3", "p4", "p5")
# nine slots, an odd count: with whole blocks the median and p75 of a run fall
# inside one slot's copies, not in the gap between two slots' costs
CLI_COMMANDS = ("integrate", "hni", "beta", "rule", "convergence", "tmvi", "distfield", "integrate", "hni")
# --n-t of each command slot, from a ladder over 256-2048.  It sets the cold
# Golub-Welsch cost (n^3: 0.01 s to 1.7 s), so it is fixed per slot: every
# block then costs the same, and the percentiles of a run fall on the same
# slots whatever the seed.
CLI_NTS = (430, 2048, 256, 1218, None, 256, 2048, 724, 300)


def _numbers_parse(rows):
    try:
        for row in rows:
            for cell in row.split(","):
                if cell:
                    float(cell)
    except ValueError:
        return False
    return True


class Cli:
    """One ``sbcubature`` subprocess per operation, one at a time."""

    name = "cli"

    def __init__(self, seed, tracer=None):
        from sbcubature import GAUSS_JACOBI, SingularSpec, SplitIntegrand, integrate_singular, testfns

        self.tracer = tracer
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.dir = os.path.join(OUT, "cli-%d" % seed)
        os.makedirs(self.dir, exist_ok=True)
        specs = {
            "star.json": {"curves": G.random_star_polygon(rng, 8), "x0": {"strategy": "origin"}},
            "bezchain.json": {"curves": G.random_bezier_chain(rng, 4)},
            "ellipse.json": {"curves": [{"type": "parametric", "x": "1.5*cos(2*pi*t)", "y": "sin(2*pi*t)"}]},
            "convex.json": {"curves": G.random_convex_polygon(rng, 7)},
        }
        for fname, doc in specs.items():
            with open(os.path.join(self.dir, fname), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        self.curves = {d: G.BUILTINS[d[len("builtin:"):]] for d in CLI_DOMAINS + CLI_LOOPS if d.startswith("builtin:")}
        self.curves.update({f: doc["curves"] for f, doc in specs.items()})
        self.samples = {d: G.BoundarySamples(c) for d, c in self.curves.items()}

        self.funcs = {"builtin:" + p: (k, testfns.lookup(p).field) for k, p in enumerate(CLI_POLYS)}
        self.funcs["expr:" + POLY_EXPR] = (4, G.np_function(POLY_EXPR, "xy"))
        self.funcs["expr:" + SMOOTH_EXPRS[1]] = (None, G.np_function(SMOOTH_EXPRS[1], "xy"))
        self.refs = {}
        for d in CLI_DOMAINS:
            s = self.samples[d]
            for fs, (_, fo) in self.funcs.items():
                self.refs[d, fs] = (G.oracle_integral(s, fo), RTOL * G.field_scale(s, fo))
            for q, src in enumerate(HNI_EXPRS):
                fo = G.np_function(src, "xy")
                self.refs[d, "hni%d" % q] = (G.oracle_integral(s, fo), RTOL * G.field_scale(s, fo))
        self.beta_refs = {}
        for name in FS_NAMES:
            meta = testfns.lookup(name).meta
            for tri in ("T1", "T2", "T3"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    self.beta_refs[name, tri] = integrate_singular(
                        testfns.lookup(tri).make(), SplitIntegrand(meta["numerator"], meta["beta"]),
                        SingularSpec((0.0, 0.0), GAUSS_JACOBI, "r1"), 40, 48)
        self.betas = {n: testfns.lookup(n).meta["beta"] for n in FS_NAMES}
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.spans_file = os.path.join(self.dir, "spans.json")

    def _path(self, d):
        return d if d.startswith("builtin:") else os.path.join(self.dir, d)

    def ops(self):
        rng = np.random.default_rng([self.seed, 2])
        st = Strata(rng)
        while True:
            block = [self._make(cmd, k, st) for k, cmd in enumerate(CLI_COMMANDS)]
            yield [block[i] for i in rng.permutation(len(block))]

    def _make(self, cmd, slot, st):
        """One command; slot tells apart the two integrate and hni slots of a block."""
        def pick(seq, what):
            return seq[st.index((slot, what), len(seq))]

        n_t = CLI_NTS[slot]
        u = st.draw((slot, "size"), 6)
        if cmd == "integrate":
            d, f = pick(CLI_DOMAINS, "domain"), pick(sorted(self.funcs), "f")
            deg = self.funcs[f][0]
            # n_t >= 256 resolves the boundary, so only the radial order needs a floor
            if deg is not None:
                lo = exact_orders(deg, 1)[0]
            else:
                lo = SMOOTH_FLOOR.get(d[len("builtin:"):], SMOOTH_FLOOR["random"])
            # n_xi at most 24 keeps both integrate slots among the cheap, import-bound slots
            n_xi = in_range(u, lo, max(lo + 4, 24))
            return {"kind": cmd, "argv": ["integrate", self._path(d), f, str(n_xi), str(n_t)],
                    "ref": [d, f], "rows": 1}
        if cmd == "hni":
            d, q = pick(CLI_DOMAINS, "domain"), st.index((slot, "q"), len(HNI_EXPRS))
            return {"kind": cmd, "argv": ["integrate", self._path(d), "expr:" + HNI_EXPRS[q], "1", str(n_t),
                                          "--hni", str(q)], "ref": [d, "hni%d" % q], "rows": 1}
        if cmd == "beta":
            f, tri = pick(FS_NAMES, "f"), pick(("T1", "T2", "T3"), "tri")
            argv = ["integrate", "builtin:" + tri, "builtin:" + f, str(in_range(u, 16, 32)), str(n_t),
                    "--beta", repr(self.betas[f]), "--xc", "0", "0",
                    "--radial", pick(("jacobi", "gsb"), "radial"), "--t-transform", "r1"]
            return {"kind": cmd, "argv": argv, "ref": [f, tri], "rows": 1}
        if cmd == "rule":
            d = pick(("builtin:convex_quad", "builtin:bezier", "builtin:circle", "star.json", "bezchain.json"), "domain")
            # as many radial nodes as fit the row cap, so every rule prints about as much
            n_xi = max(1, min(16, CLI_ROWS_CAP // (n_t * len(self.curves[d]))))
            n_t = min(n_t, CLI_ROWS_CAP // n_xi // len(self.curves[d]))
            return {"kind": cmd, "argv": ["rule", self._path(d), str(n_xi), str(n_t)],
                    "ref": [d, "builtin:p0"], "rows": 1 + n_xi * n_t * len(self.curves[d])}
        if cmd == "convergence":
            d = pick(("builtin:T1", "builtin:T3", "builtin:convex_quad", "builtin:bezier"), "domain")
            f = pick(("builtin:fF1", "builtin:fF3", "builtin:p3", "expr:" + SMOOTH_EXPRS[0]), "f")
            n_min, n_max = 2 + st.index((slot, "n_min"), 3), in_range(u, 8, 20)
            return {"kind": cmd, "argv": ["convergence", self._path(d), f, str(n_min), str(n_max)],
                    "rows": 2 + n_max - n_min}
        # grid^2 x n_t x curves kernel pairs: the grid fills the pair cap (a
        # quarter of it for tmvi, which joins the cheap slots), so every child of
        # a slot peaks at about the same size
        d = pick(CLI_LOOPS, "domain")
        cap = CLI_PAIR_CAP // 4 if cmd == "tmvi" else CLI_PAIR_CAP
        grid = min(100, int((cap / (n_t * len(self.curves[d]))) ** 0.5))
        if cmd == "tmvi":
            argv = ["tmvi", self._path(d), pick(("builtin:g1", "expr:2 - x + 0.5*y"), "g"), "--grid", str(grid)]
        else:
            # --p 1 only, to keep a known defect of the seed code out so that no
            # op fails: cli._interior_mask (kernel power 3) admits exterior cells
            # next to the boundary that the power-(2+p) Lp kernel rejects, so e.g.
            # `distfield builtin:egg --p 10 --grid 64 --n-t 732` exits 2; so do
            # some random convex polygons at --p 100.  The fields workload runs
            # p = 10 and 100 in-process on interior points.
            argv = ["distfield", self._path(d), "--p", "1", "--grid", str(grid)]
        return {"kind": cmd, "argv": argv + ["--n-t", str(n_t)], "rows": 1 + grid * grid}

    def execute(self, op):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "sbcubature.cli"] + op["argv"]
        else:
            cmd = [sys.executable, os.path.join(PERFBENCH, "cli_traced.py"), self.spans_file] + op["argv"]
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        if self.tracer is not None and proc.returncode == 0:
            with open(self.spans_file, encoding="utf-8") as fh:
                doc = json.load(fh)
            self.tracer.merge(doc["spans"], doc["extras"], self.tracer.op)
        return proc.returncode, proc.stdout

    def check(self, op, result):
        code, out = result
        rows = out.splitlines()
        if code != 0 or len(rows) != op["rows"] or not _numbers_parse(rows[1:] if len(rows) > 1 else rows):
            return False
        kind = op["kind"]
        if kind in ("integrate", "hni"):
            ref, tol = self.refs[tuple(op["ref"])]
            return abs(float(rows[0]) - ref) <= tol
        if kind == "beta":
            ref = self.beta_refs[tuple(op["ref"])]
            return abs(float(rows[0]) - ref) <= fs_tolerance(int(op["argv"][3])) * abs(ref)
        if kind == "rule":
            area, tol = self.refs[tuple(op["ref"])]
            w = sum(float(r.rsplit(",", 1)[1]) for r in rows[1:])
            return abs(w - area) <= tol
        return True


WORKLOADS = {w.name: w for w in (Smooth, Singular, Fields, Cli)}


def result_digest(workload, value):
    if workload == "cli":
        return digest("%d\n%s" % value)
    return digest(value)

