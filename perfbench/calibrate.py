"""Host-speed reference: a fixed loop timed next to the operations.

The benchmark shares a few cores of a host whose speed for one thread
drifts, in phases of seconds to minutes, by up to 1.5x with load outside
its control; process CPU time drifts with it, so it is no help.  So the
benchmark times this fixed loop (no library code) every
``EVERY_S`` seconds between operations, and reports every time scaled to
the reference speed: ``wall time * REF_S / loop time``, with the loop
time the median of the ``WINDOW`` samples nearest in time.  A change in
the library moves the operations and not the loop, so it shows in full;
a slow phase of the host moves both and cancels out.  The loop's time
is never counted as operation time, and the raw wall-clock figures are
printed beside the scaled ones.
"""

import bisect
import statistics
import time

import numpy as np

# Passes over the 2 MB arrays, per workload.  That part slows down least in a
# slow phase of the host.  Two passes track the array-bound and mixed
# workloads; the interpreter-bound singular suite slows down more (one pass),
# CLI children, which also pay process start and import, less (four passes).
# Chosen from the slope of op slowdown against loop slowdown in 2 s windows
# and from ten-seed spreads.
BIG_PASSES = {"smooth": 2, "singular": 1, "fields": 2, "cli": 4}
# the loop's median time for each pass count on the 2-vCPU Xeon (2.1 GHz)
# the benchmark was built on
REF_S = {1: 0.0029, 2: 0.0035, 4: 0.0046}
EVERY_S = 0.1     # seconds between samples in a timed phase (at least one per operation)
WINDOW = 5        # samples whose median scales one interval

_SMALL = np.linspace(0.1, 1.0, 16)
_MID = np.linspace(0.0, 1.0, 4096)
_BIG = np.linspace(0.0, 1.0, 1 << 18)
_M = np.random.default_rng(0).random((48, 48))


def reference_loop(big_passes):
    """About equal parts of the kinds of work the workloads do: element-wise
    passes over 2 MB arrays, many numpy calls on tiny arrays, an
    interpreter-bound loop, mid-size element-wise math, small matmuls."""
    acc = 0.0
    for _ in range(big_passes):
        acc += float((np.sqrt(_BIG) * _BIG + 1.0).sum())
    for i in range(120):
        x = _SMALL * (1.0 + i * 1e-3) + 0.3
        acc += float((np.sqrt(x) * x - np.sin(x)).sum())
    d = {}
    for i in range(4000):
        d[i & 31] = acc
        acc += (i % 7) * 0.5 + d.get(i & 15, 0.0) * 1e-9
    for i in range(14):
        acc += float((np.sin(_MID * i) * np.sqrt(_MID + 1.0)).sum())
    for _ in range(16):
        acc += float((_M @ _M)[0, 0])
    return acc


class Speed:
    """Samples of the reference loop, and the scale they give a moment."""

    def __init__(self, workload):
        self.big_passes = BIG_PASSES[workload]
        self.ref_s = REF_S[self.big_passes]
        self.mids = []
        self.times = []
        self.last = -float("inf")

    def sample(self, k=1):
        for _ in range(k):
            t0 = time.perf_counter()
            reference_loop(self.big_passes)
            t1 = time.perf_counter()
            self.mids.append(0.5 * (t0 + t1))
            self.times.append(t1 - t0)
        self.last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def scale(self, t):
        """The reference time over the median loop time of the WINDOW samples nearest t."""
        i = bisect.bisect(self.mids, t)
        lo = min(max(0, i - WINDOW // 2), max(0, len(self.times) - WINDOW))
        return self.ref_s / statistics.median(self.times[lo:lo + WINDOW])

    def scaled(self, spans):
        """Scaled durations of (start, duration) pairs."""
        return [d * self.scale(t0 + 0.5 * d) for t0, d in spans]
