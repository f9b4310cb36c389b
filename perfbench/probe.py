"""Speed probes: fixed pieces of work timed in the measured process itself.

The shared 2-core host this benchmark was defined on changes speed by up
to 2x within seconds (a fixed Fraction loop took 80 to 170 ms over one
minute), and each core drifts on its own, so only a probe run in the
measured thread itself tracks the speed the tasks saw.  A Speedometer
runs a probe every PERIOD_S from a SIGALRM handler; a time t measured
while the probe ran r times slower than its reference time is reported
as t / r, "at reference speed".  The reference times are fixed units,
never re-measured.

There are two probes, because the host's slow periods slow pure-Python
code more than vectorised numpy code: `fraction` (rational arithmetic in
the interpreter) for the exact workload, `numpy` (a small matrix product,
complex exp/log and a pass over an array larger than the L2 cache) for
the series kernels and the CLI calls.  The numpy probe only samples once
the measured code has imported numpy itself, so a cold process still
pays its own numpy import.  NOTES.md gives the measurements behind these
choices.
"""

import signal
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02


def fraction_probe():
    def work():
        s = Fraction(0)
        for i in range(1, 200):
            s += Fraction(1, i % 97 + 1)
        return s
    return work


def numpy_probe():
    np = sys.modules["numpy"]
    p = np.cos(np.arange(1200.0)).reshape(300, 4)
    x = np.linspace(1.0, 2.0, 4000) + 0.5j
    big = np.linspace(1.0, 2.0, 40000) + 0.5j

    def work():
        # a matrix product and transcendentals (compute), then a pass over
        # a 640 kB array (memory), as the series kernels mix them
        return ((p @ p.T).sum() + np.exp(-5.0 * np.log(x)).sum()
                + np.abs(big * big + big).sum())
    return work


def module_imported(name):
    """The module is in sys.modules and done initialising; a probe must
    not touch it halfway through the measured code's own import."""
    mod = sys.modules.get(name)
    return mod is not None and not getattr(mod.__spec__, "_initializing", False)


# probe name -> (makes the work, reference seconds, module it waits for)
PROBES = {"fraction": (fraction_probe, 0.42e-3, "fractions"),
          "numpy": (numpy_probe, 0.6e-3, "numpy")}


class Speedometer:
    """Samples a probe every PERIOD_S in the calling thread.

    `probing` is the time spent in the probe so far, for the caller to
    take out of its own timings; `slowdown(t0, t1)` is how many times
    slower than its reference the probe ran around [t0, t1].
    """

    def __init__(self, probe):
        self.make, self.ref, self.needs = PROBES[probe]
        self.work = None  # made once self.needs is imported
        self.at, self.ratio = [], []  # sample midpoints and slowdowns, in order
        self.probing = 0.0
        self.busy = False

    def sample(self, *_):
        # a tick that comes while a slow sample is still running is dropped
        if self.busy or not module_imported(self.needs):
            return
        self.busy = True
        start = perf_counter()
        if self.work is None:
            self.work = self.make()
        t0 = perf_counter()
        self.work()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.ratio.append((t1 - t0) / self.ref)
        self.probing += perf_counter() - start
        self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def slowdown(self, t0, t1, k=7):
        """Median slowdown of the samples taken in [t0, t1], or of the k
        taken nearest to its middle when fewer than 5 fall inside."""
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        if hi - lo < 5:
            mid = bisect_left(self.at, (t0 + t1) / 2)
            lo = max(0, min(mid - k // 2, len(self.at) - k))
            hi = lo + k
        window = sorted(self.ratio[lo:hi])
        if not window:
            raise RuntimeError("the speedometer took no samples")
        n = len(window)
        return (window[(n - 1) // 2] + window[n // 2]) / 2
