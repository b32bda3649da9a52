#!/usr/bin/env python3
"""Bit-identity harness: one fixed, seeded corpus of library outputs, hashed or compared.

    python3 tools/identity.py --out FILE      # {case: SHA-256 of its C-order bytes}, as JSON
    python3 tools/identity.py --compare TREE  # the same corpus under TREE/src, case by case

The corpus is defined here, by this checkout, and run against a tree's
``src/`` in a child process that imports ``sbcubature`` from there only:

* the points, weights and curve indices of rules of every family: regular
  rules, singular rules (plain, generalized-SB and Gauss-Jacobi radial rules,
  each with no t-transform and with r1, r2 and r3) and HNI values;
* ``decompose`` and ``Region.boundary_samples`` at Gauss nodes, linspace nodes
  and one node row per curve;
* TMVI and Lp-distance values, crack-tip and fS values, and expressions
  evaluated at real and at complex bindings;
* the sum of one field whose values come in each memory layout (contiguous,
  a column, reversed, a packed record, stride-0 broadcasts and a shape-()
  constant) on a regular and a Gauss-Jacobi rule;
* the exception type and message (or "accepted") of every case of
  ``tests/test_contract.py``, and the exit code and stderr of its CLI cases;
* the stdout of every CLI example of README.md.

``--compare`` prints each case that differs with its largest relative
difference, and exits 1 if any does.  A hash file is not a golden file
across machines: numpy versions and libms may round differently, so
compare two trees on one machine.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def corpus():
    """(case, value) pairs: float or int arrays, or text."""
    import sbcubature as sb
    from sbcubature import exprlang, testfns, tmvi

    geometries = {name: testfns.lookup(name).make() for name in (
        "T1", "T3", "T4", "convex_quad", "convex_hexagon", "nonconvex_star", "bezier",
        "deltoid", "circle", "egg")}
    polygons = ("T3", "convex_quad", "nonconvex_star")
    rng = np.random.default_rng(20201)

    def rule(name, r):
        yield name + ".points", r.points
        yield name + ".weights", r.weights
        yield name + ".curve_index", r.curve_index

    def outcome(call, accepted=None):
        """The value of call() (or accepted, if given), or its exception's type and message."""
        try:
            value = call()
        except Exception as exc:
            return "%s: %s" % (type(exc).__name__, same_ids(str(exc)))
        return value if accepted is None else accepted

    centers = {"average": sb.CenterPolicy.VERTEX_AVERAGE, "origin": sb.CenterPolicy.ORIGIN,
               "vertex": sb.CenterPolicy.vertex(0), "custom": sb.CenterPolicy.custom((0.3, -0.2))}
    for g, region in geometries.items():
        for c, policy in centers.items():
            for n_xi, n_t in ((1, 1), (3, 4), (6, 9)):
                yield from rule("rule.%s.%s.%d.%d" % (g, c, n_xi, n_t),
                                sb.generate_rule(region, policy, n_xi, n_t))

    radials = {"plain": lambda b: None, "gsb": lambda b: sb.GeneralizedSB(sb.select_alpha(b)),
               "jacobi": lambda b: sb.GAUSS_JACOBI}
    for g in polygons + ("bezier", "circle"):
        region = geometries[g]
        lo, hi = region.bbox()
        for where, xc in (("inside", 0.6 * lo + 0.4 * hi), ("outside", lo - 0.25 * (hi - lo))):
            for beta in (0.5, 1.0, 1.5):
                for r, radial in radials.items():
                    for tt in (None, "r1", "r2", "r3") if g in polygons else (None,):
                        spec = sb.SingularSpec(tuple(xc), radial(beta), tt)
                        name = "singular.%s.%s.%s.%s.%s" % (g, where, beta, r, tt)
                        try:
                            yield from rule(name, sb.generate_singular_rule(region, spec, beta, 5, 7))
                        except sb.InvalidArgumentError as exc:
                            yield name, "InvalidArgumentError: %s" % exc
    for beta in (0.37, 1.23):  # a continuous beta: cold Gauss-Jacobi rules
        spec = sb.SingularSpec((0.2, 0.3), sb.GAUSS_JACOBI, "r1")
        yield from rule("singular.T3.jacobi.%s" % beta,
                        sb.generate_singular_rule(geometries["T3"], spec, beta, 9, 8))
    for n, eta in ((1, 0.0), (7, -0.5), (16, 0.63), (40, 1.8), (200, 0.0), (8, 170.0)):
        yield "rule1d.%d.%s" % (n, eta), outcome(lambda: np.concatenate(
            [sb.gauss_jacobi_unit(n, eta).nodes, sb.gauss_jacobi_unit(n, eta).weights]))

    homogeneous = {"x2y": (lambda x, y: x * x * y, 3), "one": (lambda x, y: np.ones_like(x), 0),
                   "radius": (lambda x, y: np.hypot(x, y), 1)}
    for g in ("T1", "convex_quad", "bezier", "circle"):
        for h, (f, q) in homogeneous.items():
            for n_t in (3, 12):
                yield "hni.%s.%s.%d" % (g, h, n_t), np.array(
                    sb.hni_integrate(geometries[g], sb.HomogeneousField(f, q), n_t))

    for g in ("T3", "convex_hexagon", "bezier", "circle", "egg"):
        region = geometries[g]
        m = len(region.curves)
        rows = np.sort(rng.uniform(0.0, 1.0, (m, 6)), axis=1)
        for t_name, t in (("gauss", sb.gauss_legendre(8).nodes), ("linspace", np.linspace(0, 1, 9)),
                          ("rows", rows)):
            for i, a in enumerate(region.boundary_samples(t)):
                yield "boundary_samples.%s.%s.%d" % (g, t_name, i), a
            for x0_name, x0 in (("zero", (0.0, 0.0)), ("vertex", tuple(region.vertices[0]))):
                for i, a in enumerate(sb.decompose(region, x0, t)):
                    yield "decompose.%s.%s.%s.%d" % (g, t_name, x0_name, i), a

    loops = {"egg": sb.egg_domain(), "hexagon": sb.BoundaryLoop(geometries["convex_hexagon"].curves),
             "circle": sb.BoundaryLoop(geometries["circle"].curves)}
    for name, loop in loops.items():
        lo, hi = loop.bbox()
        inside = 0.5 * (lo + hi) + 0.3 * (hi - lo) * rng.uniform(-1.0, 1.0, (40, 2))
        grid = lo + (hi - lo) * rng.uniform(-0.1, 1.1, (60, 2))
        yield "tmvi.%s" % name, sb.tmvi_eval_many(loop, lambda x, y: np.sin(x) + y * y, inside, 64)
        for p in (1.0, 2.0, 10.0):
            yield "lp.%s.%s" % (name, p), tmvi.lp_distance_many(loop, inside, p, 64)
        for field in ({"p": 3.0}, {"g": lambda x, y: 1.0 + x - 2.0 * y}):
            values, mask = tmvi.evaluate_masked(loop, grid, 48, **field)
            yield "masked.%s.%s" % (name, sorted(field)[0]), values
            yield "masked.%s.%s.inside" % (name, sorted(field)[0]), mask

    for element in ("Omega1", "Omega2"):
        for dx in (0.01, 0.1, 0.3):
            regions, fields, beta, xc = testfns.xfem_integrands(element, dx)
            for i, region in enumerate(regions):
                for r, radial in radials.items():
                    for tt in (None, "r1"):
                        spec = sb.SingularSpec(tuple(xc), radial(beta), tt)
                        crack = sb.generate_singular_rule(region, spec, beta, 6, 8)
                        yield ("crack.%s.%s.%d.%s.%s" % (element, dx, i, r, tt),
                               np.array([crack(f) for f in fields]))
    xy = rng.uniform(-1.0, 1.0, (2, 50))
    for name in ("fS1", "fS2", "fS3", "fS4", "fS5", "fS6"):
        fn = testfns.lookup(name)
        beta = fn.meta["beta"]
        yield "fS.%s.field" % name, fn.field(*xy)
        for r, radial in radials.items():
            spec = sb.SingularSpec((0.0, 0.0), radial(beta), "r1")
            yield "fS.%s.%s" % (name, r), np.array(sb.integrate_singular(
                geometries["T3"], sb.SplitIntegrand(fn.meta["numerator"], beta), spec, 6, 12))

    t = np.linspace(0.0, 1.0, 17)
    for src in ("sin(x)*exp(-y^2) + atan2(y, x) - pow(x, 3)", "sqrt(abs(x)) / (1 + y^2)",
                "min(x, y) + max(x, y) * ln(2 + x) - tanh(y)^2", "x^2^0.5 - -y"):
        expr = exprlang.parse(src)
        yield "expr.real.%s" % src, exprlang.evaluate(expr, {"x": xy[0], "y": xy[1]})
        z = {"x": xy[0] + 1e-3j, "y": xy[1] - 2e-3j}
        value = exprlang.evaluate(expr, z)
        yield "expr.complex.%s" % src, np.stack([value.real, value.imag])
        yield "field.%s" % src, exprlang.compile_field(src)(*xy)
    for src in (("cos(2*pi*t)", "sin(2*pi*t)"), ("t^0.5", "t^3 - t"), ("asin(t)", "acos(t/2)")):
        curve = sb.ParametricCurve(*src)
        yield "curve.%s.position" % (src,), curve.position(t)
        yield "curve.%s.velocity" % (src,), curve.velocity(t)

    def packed(x, y):  # a float64 field of a packed record: stride 9 bytes
        rec = np.zeros(len(x), dtype=[("flag", "u1"), ("value", "f8")])
        rec["value"] = x * y + 0.25
        return rec["value"]

    layouts = {"contiguous": lambda x, y: x * y + 0.25,
               "column": lambda x, y: np.column_stack([x, y, x * y + 0.25])[:, 2],
               "reversed": lambda x, y: (x * y + 0.25)[::-1], "packed": packed,
               "stride-0": exprlang.compile_field("1"),
               "stride-0-const": exprlang.compile_field("0.1 * 3"),
               "constant": lambda x, y: 0.3}
    average = sb.CenterPolicy.VERTEX_AVERAGE
    for name, r in (("T3.3.5", sb.generate_rule(geometries["T3"], average, 3, 5)),
                    ("bezier.7.11", sb.generate_rule(geometries["bezier"], average, 7, 11)),
                    ("convex_quad.jacobi.r1.24.32", sb.generate_singular_rule(
                        geometries["convex_quad"], sb.SingularSpec((0.5, 0.5), sb.GAUSS_JACOBI, "r1"),
                        0.5, 24, 32))):
        for layout, f in layouts.items():
            yield "layout.%s.%s" % (name, layout), np.array(r(f))

    # the contract table and the CLI
    sys.path.insert(0, str(ROOT / "tests"))
    import test_contract as contract

    for row, (_, calls, cases) in contract.ROWS.items():
        for case, value, _, _ in cases:
            for i, call in enumerate(calls):
                args = value if isinstance(value, contract.Args) else (value,)
                yield "contract.%s-%s.%d" % (row, case, i), outcome(lambda: call(*args), "accepted")
    with tempfile.TemporaryDirectory() as tmp:
        domain = os.path.join(tmp, "domain.json")
        for row, cases in contract.CLI_ROWS.items():
            for case, argv, _, *doc in cases:
                doc = doc[0] if doc else None
                with open(domain, "w") as fh:
                    fh.write(doc if isinstance(doc, str) else json.dumps(doc))
                code, out, err = run_cli([a.replace("{}", domain) for a in shlex.split(argv)])
                yield "contract.%s-%s" % (row, case), "exit %s\n%s%s" % (code, out, same_ids(err))
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        (square,) = re.findall(r"^```json\n(.*?)^```", readme, re.M | re.S)
        Path(tmp, "square.json").write_text(square, encoding="utf-8")
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
                for line in block.replace("\\\n", " ").splitlines():
                    if line.startswith("sbcubature "):
                        code, out, _ = run_cli(shlex.split(line)[1:])
                        yield "readme.%s" % line, "exit %s\n%s" % (code, out)
        finally:
            os.chdir(here)


def same_ids(text):
    """text with each object address (as reprlib shortens it, too) in one form."""
    return re.sub(r"(?<=x)[0-9a-f]{6,}>", "...>", text)


def run_cli(argv):
    """cli.main in-process: (exit code, stdout, stderr)."""
    from sbcubature import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def emit(src, path):
    """Run the corpus against src/ (already first on sys.path) into an .npz file."""
    names, values = [], {}
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for name, value in corpus():
            if name in names:
                raise SystemExit("case %r twice in the corpus" % name)
            values["c%d" % len(names)] = np.asarray(value)
            names.append(name)
    np.savez(path, names=np.array(names), **values)


def run_tree(tree):
    """The corpus under tree/src, from a child process: {case: array}."""
    src = Path(tree).resolve() / "src"
    if not (src / "sbcubature").is_dir():
        raise SystemExit("no src/sbcubature under %s" % tree)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.npz")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        if subprocess.run([sys.executable, __file__, "--emit", str(src), path], env=env).returncode:
            raise SystemExit("the corpus failed under %s" % src)
        with np.load(path) as data:
            return {str(n): data["c%d" % i] for i, n in enumerate(data["names"])}


def digest(value):
    data = str(value).encode() if value.dtype.kind == "U" else np.ascontiguousarray(value).tobytes()
    return hashlib.sha256(data).hexdigest()


def difference(old, new):
    """How two values of a case differ: the largest relative difference, or what changed."""
    if old.dtype.kind == "U" or new.dtype.kind == "U":
        return "%r -> %r" % (str(old)[:200], str(new)[:200])
    if old.shape != new.shape:
        return "shape %s -> %s" % (old.shape, new.shape)
    a, b = old.astype(float), new.astype(float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(all="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return "largest relative difference %.3g" % np.max(np.where(same, 0.0, rel))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", help="write {case: SHA-256} of this tree as JSON")
    ap.add_argument("--compare", metavar="TREE", help="compare this tree with TREE, case by case")
    ap.add_argument("--emit", nargs=2, metavar=("SRC", "NPZ"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        sys.path.insert(0, args.emit[0])
        return emit(*args.emit)
    if not (args.out or args.compare):
        ap.error("give --out FILE or --compare TREE")
    here = run_tree(ROOT)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({k: digest(v) for k, v in here.items()}, fh, indent=0, sort_keys=True)
        print("%d cases written to %s" % (len(here), args.out))
    if args.compare:
        there = run_tree(args.compare)
        differ = 0
        for name in sorted(set(here) | set(there)):
            if name not in here or name not in there:
                print("%s: only in %s" % (name, "this tree" if name in here else args.compare))
                differ += 1
            elif digest(here[name]) != digest(there[name]) or here[name].shape != there[name].shape:
                print("%s: %s" % (name, difference(there[name], here[name])))
                differ += 1
        print("%d of %d cases differ" % (differ, len(set(here) | set(there))))
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
