"""Spans around the library's public functions, installed from outside.

Nothing in the library changes: ``Tracer.install`` replaces module
functions and class methods with timing wrappers.  A span is
``[name, layer, start, end, parent, op, attrs, outer]``; ``outer`` is
true when no enclosing open span belongs to the same layer, so a layer's
busy time is the sum of its outer spans and never counts nested calls
twice.  Self time is a span's duration minus that of its direct children
(one thread, so children never overlap).  Spans stay in memory until
``write`` at the end of the run.
"""

import json
import resource
import sys
import time
from collections import defaultdict

_now = time.perf_counter


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.recording = False
        self.op = -1
        self.rules_seen = set()
        self.extras = defaultdict(float)

    # -- span primitives -------------------------------------------------

    def _enter(self, name, layer):
        spans = self.spans
        outer = all(spans[i][1] != layer for i in self.stack)
        idx = len(spans)
        spans.append([name, layer, _now(), None, self.stack[-1] if self.stack else -1, self.op, None, outer])
        self.stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][3] = _now()
        self.stack.pop()

    def span(self, name, layer, fn, attrs=None):
        """Wrap fn; attrs(args, kwargs, result) -> dict is stored on the span."""
        tracer = self

        def wrapper(*a, **k):
            if not tracer.recording:
                return fn(*a, **k)
            idx = tracer._enter(name, layer)
            try:
                r = fn(*a, **k)
            finally:
                tracer._exit(idx)
            if attrs is not None:
                tracer.spans[idx][6] = attrs(a, k, r)
            return r

        return wrapper

    def wrap_field(self, f, layer):
        """Benchmark-side span around a field callable handed to the library."""
        import numpy as np

        return self.span("field", layer, f, lambda a, k, r: {"pts": int(np.size(a[0]))})

    def op_span(self, kind):
        """Context for one benchmark operation; its spans share the op id."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.op += 1
                self.idx = tracer._enter("op", "op") if tracer.recording else None
                if self.idx is not None:
                    tracer.spans[self.idx][6] = {"kind": kind}
                return self

            def __exit__(self, *exc):
                if self.idx is not None:
                    tracer._exit(self.idx)

        return _Op()

    # -- installation ----------------------------------------------------

    def _replace(self, original, wrapper):
        """Rebind every sbcubature module attribute that is ``original``."""
        for name, mod in list(sys.modules.items()):
            if name == "sbcubature" or name.startswith("sbcubature."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _method(self, cls, attr, name, layer, attrs=None):
        setattr(cls, attr, self.span(name, layer, cls.__dict__[attr], attrs))

    def install(self):
        import numpy as np
        import sbcubature  # noqa: F401  (loads every submodule)
        from sbcubature import curves, exprlang, hni, region, rules, sbc, singular, testfns, tmvi

        tracer = self

        for fname in ("gauss_legendre", "gauss_jacobi_unit"):
            original = getattr(rules, fname)

            def rule_wrapper(n, *eta, _f=original, _name="rules." + fname):
                # a build is cold the first time this process asks for (n, eta)
                key = (int(n), float(eta[0]) if eta else 0.0)
                cold = key not in tracer.rules_seen
                tracer.rules_seen.add(key)
                if not tracer.recording:
                    return _f(n, *eta)
                idx = tracer._enter(_name, "rules")
                try:
                    return _f(n, *eta)
                finally:
                    tracer._exit(idx)
                    tracer.spans[idx][6] = {"n": key[0], "cold": cold}

            self._replace(original, rule_wrapper)

        def curve_attrs(a, k, r):
            pts = int(np.size(a[1]))
            for i in tracer.stack:
                s = tracer.spans[i]
                if s[0] == "sbc.generate":
                    s[6]["curve_pts"] += pts
            return {"pts": pts}

        kinds = {
            curves.Segment: "segment",
            curves.Bezier: "bezier",
            curves.RationalBezier: "rational_bezier",
            curves.ParametricCurve: "parametric",
            tmvi.EggCurve: "egg",
        }
        for cls, kind in kinds.items():
            for meth in ("position", "velocity"):
                self._method(cls, meth, "curves.%s.%s" % (kind, meth), "curves", curve_attrs)

        self._replace(exprlang.parse, self.span("exprlang.parse", "exprlang", exprlang.parse))
        self._replace(exprlang.evaluate, self.span("exprlang.evaluate", "exprlang", exprlang.evaluate))

        for fname in ("resolve_center", "decompose"):
            f = getattr(region, fname)
            self._replace(f, self.span("region." + fname, "region", f))
        for meth in ("bbox", "scale"):
            self._method(region.Region, meth, "region." + meth, "region")

        generate = sbc.generate_rule

        def generate_wrapper(reg, policy, n_xi, n_t):
            if not tracer.recording:
                return generate(reg, policy, n_xi, n_t)
            idx = tracer._enter("sbc.generate", "sbc")
            tracer.spans[idx][6] = {"curve_pts": 0, "norm": 2 * int(n_t) * len(reg.curves)}
            try:
                rule = generate(reg, policy, n_xi, n_t)
            finally:
                tracer._exit(idx)
            tracer.spans[idx][6]["points"] = len(rule)
            return rule

        self._replace(generate, generate_wrapper)
        self._method(sbc.CubatureRule, "__call__", "sbc.apply", "sbc",
                     lambda a, k, r: {"points": len(a[0])})

        f = singular.generate_singular_rule
        self._replace(f, self.span("singular.generate", "singular", f,
                                   lambda a, k, r: {"points": len(r)}))
        self._replace(hni.hni_integrate, self.span("hni.integrate", "hni", hni.hni_integrate))
        self._method(testfns.BilinearElement, "to_reference", "testfns.inverse_map", "testfns")

        # (function, index of the points argument, index of n_t)
        for fname, x_arg, nt_arg in (("tmvi_eval_many", 2, 3), ("lp_distance_many", 1, 3)):
            original = getattr(tmvi, fname)

            def tmvi_wrapper(*a, _f=original, _name="tmvi." + fname, _x=x_arg, _nt=nt_arg, **k):
                if not tracer.recording:
                    return _f(*a, **k)
                loop = a[0]
                n_t = k.get("n_t", a[_nt] if len(a) > _nt else 256)
                N = len(np.atleast_2d(a[_x]))
                rss0 = _maxrss_kb()
                idx = tracer._enter(_name, "tmvi")
                try:
                    return _f(*a, **k)
                finally:
                    tracer._exit(idx)
                    tracer.spans[idx][6] = {"N": N, "M": int(n_t) * len(loop.curves),
                                            "rss_kb": _maxrss_kb() - rss0}

            self._replace(original, tmvi_wrapper)

        samples = tmvi.BoundaryLoop.samples

        def samples_wrapper(loop, n_t):
            if not tracer.recording:
                return samples(loop, n_t)
            hit = n_t in getattr(loop, "_sample_cache", {})
            idx = tracer._enter("tmvi.samples", "tmvi.samples")
            try:
                return samples(loop, n_t)
            finally:
                tracer._exit(idx)
                tracer.spans[idx][6] = {"hit": hit}

        tmvi.BoundaryLoop.samples = samples_wrapper

    def install_cli(self):
        """Spans around the CLI's loading and commands; counters for its output.

        Output is counted, not spanned: ``rule`` prints tens of thousands of
        rows, and a span per number would cost more than the formatting.
        """
        from sbcubature import cli

        for fname in ("load_domain", "load_function"):
            f = getattr(cli, fname)
            self._replace(f, self.span("cli.load", "cli.load", f))
        for fname in ("cmd_integrate", "cmd_rule", "cmd_convergence", "cmd_tmvi", "cmd_distfield"):
            f = getattr(cli, fname)
            self._replace(f, self.span("cli.cmd", "cli.cmd", f))
        extras = self.extras
        fmt = cli.fmt

        def counted_fmt(v):
            t0 = _now()
            out = fmt(v)
            extras["cli.output_s"] += _now() - t0
            extras["cli.fmt_calls"] += 1
            return out

        def counted_print(*a, **k):
            t0 = _now()
            text = " ".join(str(x) for x in a)
            print(text, **k)
            extras["cli.output_s"] += _now() - t0
            extras["cli.output_bytes"] += len(text) + 1

        self._replace(fmt, counted_fmt)
        cli.print = counted_print

    # -- output ------------------------------------------------------------

    def merge(self, spans, extras, op):
        """Add spans recorded by a child process under op id ``op``."""
        base = len(self.spans)
        for s in spans:
            s[4] = s[4] + base if s[4] >= 0 else (self.stack[-1] if self.stack else -1)
            s[5] = op
            self.spans.append(s)
        for k, v in extras.items():
            self.extras[k] += v

    def dump(self):
        return {"spans": self.spans, "extras": dict(self.extras)}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "layer": s[1], "start": s[2], "end": s[3],
                                     "parent": s[4], "op": s[5], "attrs": s[6]}) + "\n")


# name -> (unit, better); the traced run reports every one of these.
PER_LAYER = {
    "rules.calls": ("count", "lower"),
    "rules.cold_builds": ("count", "lower"),
    "rules.busy_s": ("s", "lower"),
    "rules.cold_busy_s": ("s", "lower"),
    "rules.max_n": ("count", "lower"),
    "curves.position_pts": ("count", "lower"),
    "curves.velocity_pts": ("count", "lower"),
    "curves.busy_s": ("s", "lower"),
    "curves.segment.busy_s": ("s", "lower"),
    "curves.bezier.busy_s": ("s", "lower"),
    "curves.rational_bezier.busy_s": ("s", "lower"),
    "curves.parametric.busy_s": ("s", "lower"),
    "curves.egg.busy_s": ("s", "lower"),
    "curves.evals_per_node": ("ratio", "lower"),
    "exprlang.parse_calls": ("count", "lower"),
    "exprlang.parse_busy_s": ("s", "lower"),
    "exprlang.evaluate_calls": ("count", "lower"),
    "exprlang.evaluate_busy_s": ("s", "lower"),
    "region.calls": ("count", "lower"),
    "region.busy_s": ("s", "lower"),
    "sbc.rules_built": ("count", "higher"),
    "sbc.rule_points": ("count", "higher"),
    "sbc.generate_self_s": ("s", "lower"),
    "sbc.apply_calls": ("count", "lower"),
    "sbc.apply_self_s": ("s", "lower"),
    "sbc.points_per_s": ("1/s", "higher"),
    "singular.rules_built": ("count", "higher"),
    "singular.rule_points": ("count", "higher"),
    "singular.generate_self_s": ("s", "lower"),
    "singular.skipped_edges": ("count", "lower"),
    "hni.calls": ("count", "higher"),
    "hni.busy_s": ("s", "lower"),
    "testfns.field_calls": ("count", "lower"),
    "testfns.field_points": ("count", "lower"),
    "testfns.field_busy_s": ("s", "lower"),
    "testfns.inverse_map_calls": ("count", "lower"),
    "testfns.inverse_map_busy_s": ("s", "lower"),
    "testfns.inverse_map_calls_per_rule": ("ratio", "lower"),
    "tmvi.calls": ("count", "higher"),
    "tmvi.eval_pts": ("count", "higher"),
    "tmvi.kernel_pairs": ("count", "higher"),
    "tmvi.busy_s": ("s", "lower"),
    "tmvi.pairs_per_s": ("1/s", "higher"),
    "tmvi.samples_hit_ratio": ("ratio", "higher"),
    "tmvi.computed_bytes_max": ("bytes", "lower"),
    "tmvi.rss_growth_mb": ("MB", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.load_s": ("s", "lower"),
    "cli.compute_s": ("s", "lower"),
    "cli.output_s": ("s", "lower"),
    "cli.fmt_calls": ("count", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.op_busy_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(spans, extras):
    """Aggregate spans into the PER_LAYER metrics (overhead is added by the caller)."""
    child = defaultdict(float)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    op_kind = {s[5]: s[6]["kind"] for s in spans if s[0] == "op"}
    m = defaultdict(float)
    gen_pts = gen_norm = gen_busy = tmvi_busy = 0.0
    samples_calls = samples_hits = crack_rules = 0
    for i, s in enumerate(spans):
        name, layer, t0, t1, _, op, attrs, outer = s
        d = t1 - t0
        attrs = attrs or {}
        if layer == "rules":
            m["rules.calls"] += 1
            m["rules.busy_s"] += d
            m["rules.max_n"] = max(m["rules.max_n"], attrs["n"])
            if attrs["cold"]:
                m["rules.cold_builds"] += 1
                m["rules.cold_busy_s"] += d
        elif layer == "curves":
            kind, meth = name.split(".")[1:]
            m["curves.%s_pts" % meth] += attrs["pts"]
            if outer:
                m["curves.busy_s"] += d
                m["curves.%s.busy_s" % kind] += d
        elif layer == "exprlang":
            short = name.split(".")[1]
            m["exprlang.%s_calls" % short] += 1
            if outer:
                m["exprlang.%s_busy_s" % short] += d
        elif layer == "region":
            if outer:
                m["region.calls"] += 1
                m["region.busy_s"] += d
        elif name == "sbc.generate":
            m["sbc.rules_built"] += 1
            m["sbc.rule_points"] += attrs["points"]
            m["sbc.generate_self_s"] += d - child[i]
            gen_pts += attrs["curve_pts"]
            gen_norm += attrs["norm"]
            gen_busy += d
        elif name == "sbc.apply":
            m["sbc.apply_calls"] += 1
            m["sbc.apply_self_s"] += d - child[i]
        elif name == "singular.generate":
            m["singular.rules_built"] += 1
            m["singular.rule_points"] += attrs["points"]
            m["singular.generate_self_s"] += d - child[i]
            crack_rules += op_kind.get(op) == "crack"
        elif name == "hni.integrate":
            m["hni.calls"] += 1
            m["hni.busy_s"] += d
        elif name == "field" and layer == "testfns":
            m["testfns.field_calls"] += 1
            m["testfns.field_points"] += attrs["pts"]
            if outer:
                m["testfns.field_busy_s"] += d
        elif name == "testfns.inverse_map":
            m["testfns.inverse_map_calls"] += 1
            m["testfns.inverse_map_busy_s"] += d
        elif layer == "tmvi":
            m["tmvi.calls"] += 1
            m["tmvi.eval_pts"] += attrs["N"]
            m["tmvi.kernel_pairs"] += attrs["N"] * attrs["M"]
            m["tmvi.computed_bytes_max"] = max(m["tmvi.computed_bytes_max"], attrs["N"] * attrs["M"] * 2 * 8)
            m["tmvi.rss_growth_mb"] += attrs["rss_kb"] / 1024.0
            tmvi_busy += d
        elif name == "tmvi.samples":
            samples_calls += 1
            samples_hits += attrs["hit"]
        elif layer == "cli.load" and outer:
            m["cli.load_s"] += d
        elif layer == "cli.cmd":
            m["cli.compute_s"] += d
        elif name == "op":
            m["trace.ops"] += 1
            m["trace.op_busy_s"] += d
    for k in ("cli.import_s", "cli.output_s", "cli.fmt_calls", "cli.output_bytes", "singular.skipped_edges"):
        m[k] = extras.get(k, 0.0)
    # the command span contains loading and output; compute is what is left
    m["cli.compute_s"] -= m["cli.load_s"] + m["cli.output_s"]
    m["curves.evals_per_node"] = gen_pts / gen_norm if gen_norm else 0.0
    m["sbc.points_per_s"] = m["sbc.rule_points"] / gen_busy if gen_busy else 0.0
    m["tmvi.busy_s"] = tmvi_busy
    m["tmvi.pairs_per_s"] = m["tmvi.kernel_pairs"] / tmvi_busy if tmvi_busy else 0.0
    m["tmvi.samples_hit_ratio"] = samples_hits / samples_calls if samples_calls else 0.0
    m["testfns.inverse_map_calls_per_rule"] = (
        m["testfns.inverse_map_calls"] / crack_rules if crack_rules else 0.0
    )
    m["trace.spans"] = len(spans)
    return {k: float(m.get(k, 0.0)) for k in PER_LAYER}


def layer_shares(spans):
    """Self time per layer as a share of all op time: the predicted split."""
    child = defaultdict(float)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    own = defaultdict(float)
    total = 0.0
    for i, s in enumerate(spans):
        d = s[3] - s[2]
        if s[0] == "op":
            total += d
        layer = s[1].split(".")[0]
        own[layer] += d - child[i]
    return {k: v / total for k, v in sorted(own.items())} if total else {}
