"""The machine's speed, sampled while a workload runs.

The cores of the shared host this benchmark was made on change speed by
up to 1.7x over minutes: one fixed ``integral-route`` operation ran at
0.15 s in some 15-second stretches and 0.26 s in others, in CPU time as
in wall time.  No statistic inside one run removes a drift that slow, so
every time metric is scaled to a fixed machine speed: measured seconds
times ``NOMINAL_S`` over the mean time of a fixed calibration kernel
sampled while that metric was measured.  The kernel calls numpy only,
never cesarops, so a change to the program cannot move it.

During the timed rounds a ``SIGALRM`` every ``PERIOD_S`` runs one kernel
in the main thread, between two bytecodes of whatever operation is
running; its own time is kept apart and taken out of the operation's
time.  So even the 10-second operations of ``verify-p2`` are sampled
along their length.
"""

import signal
import statistics
import time

import numpy as np
from numpy.polynomial import polynomial as npoly

#: about the median seconds of one kernel on the reference machine (2 vCPU
#: Xeon, Python 3.11.7, numpy 2.4.6)
NOMINAL_S = 0.002
#: seconds between two samples during the timed rounds
PERIOD_S = 0.1

_rng = np.random.default_rng(0)
_COEFFS = _rng.standard_normal(1000) + 1j * _rng.standard_normal(1000)
_NODES = (0.3 + 0.6 * _rng.random(16)) * np.exp(2j * np.pi * _rng.random(16))


def kernel():
    """numpy's Horner loop over a long coefficient array at a few nodes,
    the shape of cesarops's quadrature kernels: many small numpy calls.
    A Horner loop over a Python list followed only a third of the drift
    that the ``integral-route`` operations saw; this one follows it within
    a few per cent."""
    return npoly.polyval(_NODES, _COEFFS)


class Sampler:
    """Kernel times, sampled on demand or by a timer."""

    def __init__(self):
        self.samples = []
        #: seconds spent in timer-driven samples, to take out of timings
        self.stolen = 0.0

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first=0):
        """Factor from seconds measured alongside the samples from index
        ``first`` on (one taken now if there are none) to seconds at
        ``NOMINAL_S``.  The mean, not the median: the machine switches
        between fast and slow stretches, and a sum of operation times,
        like the kernel's mean, follows the share of time spent in each,
        which a median misses until it passes one half."""
        if len(self.samples) <= first:
            self.sample()
        return NOMINAL_S / statistics.fmean(self.samples[first:])
