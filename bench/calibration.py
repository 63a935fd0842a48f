"""Speed calibration: fixed loops timed between ops to cancel host drift.

On a shared host the same op can take 1.8x longer from one half-minute to
the next, because other tenants slow the core, not because the program
changed. Between ops the benchmark times one of the fixed loops below in
thread CPU time, as it times ops. The loops use only the standard library
and never splitchain, so no change to the program can speed them up or
slow them down. Each op's time is then reported at the reference speed:
raw seconds x REFERENCE_S / the loop's time around that op. A change that
makes splitchain slower still reads slower; a host that gets slower does
not.

Each workload is paired with the loop whose work resembles its own:
``interpreter`` (hashing, dict updates, tuples, small big-integer products)
for the simulator workloads, ``bigint`` (exact hypergeometric terms as
Fractions of binomials) for ``sweep``.
"""

import gc
import hashlib
import math
import time
from fractions import Fraction


def interpreter():
    table = {}
    digest = b"calibration"
    acc = 0
    for i in range(3000):
        digest = hashlib.sha256(digest).digest()
        table[digest[:3]] = (i, digest)
        acc += len(table) & 7
    x = 3 ** 2000
    for i in range(150):
        acc ^= (x * (x + i)) & 0xFFFF
    return acc + len(sorted(table.items()))


def bigint():
    total = Fraction(0)
    whole = math.comb(2000, 1000)
    for k in range(0, 400, 5):
        total += Fraction(math.comb(800, k) * math.comb(1200, 1000 - k), whole)
    return total


KERNELS = {"interpreter": interpreter, "bigint": bigint}

# Fixed normalisation: op times are reported as if each loop took 10 ms.
REFERENCE_S = {"interpreter": 0.010, "bigint": 0.010}

# Seconds of ops between two calibrations.
INTERVAL_S = 0.1


class SpeedProbe:
    """Times one calibration loop on demand."""

    def __init__(self, kernel):
        self.kernel = KERNELS[kernel]
        self.reference = REFERENCE_S[kernel]

    def sample(self):
        """Seconds one loop takes now, with the collector paused so that
        garbage left by the last op is not charged to the loop."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.thread_time()
            self.kernel()
            return time.thread_time() - start
        finally:
            if enabled:
                gc.enable()
