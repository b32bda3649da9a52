"""sbcubature benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads: smooth, singular, fields, cli (see workloads.py).
One caller, closed loop, one operation at a time; BLAS is pinned to one
thread.  With ``--trace 0`` the last line reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run plus the tracing
overhead against an untraced run of the same seed.  Every slow sample is
kept: nothing is retried, trimmed or re-seeded.  End-to-end times are
scaled to the speed of a fixed reference loop timed between operations
(calibrate.py); ``ops_per_s`` is operations over their summed scaled
time.  The unscaled wall-clock figures are printed beside them.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 3
# op_tail_ms percentile per workload: the highest that keeps at least ten
# samples beyond it at the seed code's op rate (cli: 36 ops in a slow run),
# fixed so runs compare like with like; a run with too few ops falls back
# down TAIL_LADDER.
TAIL_PCT = {"smooth": 99.0, "singular": 95.0, "fields": 95.0, "cli": 70.0}
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 70.0, 50.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("smooth", "singular", "fields", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set-up samples, the self-check and the tracing-overhead comparison
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES, help=argparse.SUPPRESS)
    ap.add_argument("--max-ops", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--record", default=None, help=argparse.SUPPRESS)
    ap.add_argument("--latencies", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def tail(latencies, pct):
    """Nearest-rank percentile pct, or the next ladder step with ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for q in (pct,) + tuple(q for q in TAIL_LADDER if q < pct):
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return xs[rank - 1], q, n - rank
    return xs[-1], 100.0, 0


def blas_info():
    import numpy as np

    info = {"name": "unknown", "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    import ctypes
    import glob

    # numpy wheels bundle OpenBLAS next to the package; CDLL returns the loaded copy
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    info["threads"] = "env %s" % BLAS_THREADS
    return info


def environment(n_ops, tail_q, tail_beyond, speed):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "ops": n_ops,
        "op_tail_percentile": tail_q,
        "op_tail_samples_beyond": tail_beyond,
        "load": "closed loop, 1 caller, 1 process (cli: 1 child at a time)",
        "reference_loop_ms": {"big_passes": speed.big_passes, "ref": 1000.0 * speed.ref_s,
                              "samples": len(speed.times),
                              "median": 1000.0 * statistics.median(speed.times),
                              "min": 1000.0 * min(speed.times), "max": 1000.0 * max(speed.times)},
    }


def setup_samples(args, own):
    """Median set-up time over this process and fresh child interpreters."""
    samples = [own]
    for _ in range(args.setup_samples - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, timeout=170, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def timed_phase(wl, seconds, tracer, max_ops, record, speed):
    """Run whole blocks of ops until ``seconds`` have passed (or ``max_ops`` ops).

    Whole blocks, so every run measures complete copies of the input mix.
    The reference loop runs between ops (see calibrate.py); returns each
    op's (start, wall duration).
    """
    import workloads

    blocks = wl.ops()
    spans, failures, shown = [], 0, 0
    speed.sample(3)
    t0 = time.perf_counter()
    deadline = math.inf if max_ops else t0 + seconds
    if tracer is not None:
        tracer.recording = True
    while time.perf_counter() < deadline and (max_ops is None or len(spans) < max_ops):
        block = next(blocks)
        if max_ops is not None:
            block = block[:max_ops - len(spans)]
        for op in block:
            ts = time.perf_counter()
            result, ok = None, False
            try:
                with tracer.op_span(op["kind"]) if tracer is not None else nullcontext():
                    result = wl.execute(op)
                spans.append((ts, time.perf_counter() - ts))
                ok = wl.check(op, result)
            except Exception:  # a failed operation is counted, reported and kept
                spans.append((ts, time.perf_counter() - ts))
                if shown < 3:
                    traceback.print_exc()
                    shown += 1
            if not ok:
                failures += 1
                if shown < 3:
                    print("check failed: %s" % json.dumps(op), file=sys.stderr)
                    shown += 1
            if record is not None:
                record.append({"op": op, "ok": bool(ok), "digest": None if result is None
                               else workloads.result_digest(wl.name, result)})
            speed.maybe_sample()
    if tracer is not None:
        tracer.recording = False
    speed.sample(3)
    return spans, failures


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced_latencies(args):
    """Latencies of a shorter untraced run of the same seed, for the tracing overhead.

    The same seed gives the same ops, so the two runs are compared over
    their common prefix.
    """
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "untraced-%s-%d.json" % (args.workload, args.seed))
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds / 2), "--trace", "0", "--setup-samples", "1", "--latencies", path],
        stdout=subprocess.DEVNULL, timeout=170, check=True)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "sbcubature")):
        print("error: no library source at %s; run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import calibrate
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer)
    own_wall = time.perf_counter() - T_START
    speed = calibrate.Speed(args.workload)
    speed.sample(3)
    own_setup = own_wall * speed.scale(speed.mids[1])
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup, "wall_s": own_wall}))
        return 0
    setup_s, setups = (own_setup, [own_setup]) if args.trace else setup_samples(args, own_setup)

    record = [] if args.record else None
    spans, failures = timed_phase(wl, args.seconds, tracer, args.max_ops, record, speed)
    wall = [d for _, d in spans]
    latencies = speed.scaled(spans)
    n = len(latencies)
    tail_s, tail_q, beyond = tail(latencies, TAIL_PCT[args.workload])
    env = environment(n, tail_q, beyond, speed)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    if args.latencies:
        with open(args.latencies, "w", encoding="utf-8") as fh:
            json.dump(latencies, fh)

    if not args.trace:
        metrics = {
            "ops_per_s": (n / sum(latencies), "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1000.0 * tail_s, "ms"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
            "setup_s": (setup_s, "s"),
        }
        # fail_frac is 0 on working code, so it is carried by "failed" in the
        # result line rather than as a metric with a relative bound
        shown = dict(metrics, fail_frac=(failures / n, "1"))
        for name, (value, unit) in shown.items():
            print("%-12s %14.6g %s" % (name, value, unit))
        print("op_tail_ms is p%g of %d ops (%d beyond); setup samples %s"
              % (tail_q, n, beyond, ", ".join("%.3f" % s for s in setups)))
        print("wall clock, unscaled: ops_per_s %.6g, op_p50_ms %.6g, op_tail_ms %.6g, setup_s %.6g"
              % (n / sum(wall), 1000.0 * statistics.median(wall), 1000.0 * tail(wall, tail_q)[0], own_wall))
    else:
        if hasattr(wl, "skipped"):
            tracer.extras["singular.skipped_edges"] = wl.skipped
        values = tracing.layer_metrics(tracer.spans, tracer.extras)
        base = untraced_latencies(args)
        k = min(len(base), n)
        values["trace.overhead_pct"] = 100.0 * (sum(latencies[:k]) / sum(base[:k]) - 1.0)
        metrics = {name: (values[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
        for name, (value, unit) in metrics.items():
            print("%-36s %14.6g %s" % (name, value, unit))
        print("self-time share by layer: " + ", ".join(
            "%s %.1f%%" % (k_, 100 * v) for k_, v in tracing.layer_shares(tracer.spans).items()))
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "trace-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        print("spans written to %s" % os.path.relpath(path, ROOT))
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": failures == 0,
        "attempted": n,
        "failed": failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
