"""Host-speed reference for normalising times on a shared machine.

On a small shared VM the speed of the host drifts by up to 2x over minutes
(other tenants, frequency changes), which would swamp any change to opcalc.
The benchmark therefore times a fixed reference kernel -- small dense
linear algebra and interpreter work, where opcalc jobs spend their time, and
no opcalc code -- between jobs.  It has no memory-streaming part: the time of
one did not track the jobs' times.
A job's time is scaled by ``NOMINAL_S / (kernel time around the job)``:
seconds on a host where the kernel takes ``NOMINAL_S``.  Raw times are kept
in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.005       # kernel time that defines one normalised second

_A = (np.arange(64).reshape(8, 8) % 7 - 3) / 7.0 + 0j
_SHIFT = 3.0 * np.eye(8)


def kernel() -> float:
    """Seconds taken by one fixed unit of reference work."""
    t0 = time.perf_counter()
    x = _A
    for _ in range(140):
        x = np.linalg.inv(x @ _A + _SHIFT)
    s = 0
    for k in range(20000):
        s += k * k
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the reference kernel before every job and after the last one.

    The host switches between fast and slow states within tens of
    milliseconds, so a job is normalised by the samples taken right before
    and right after it.
    """

    def __init__(self):
        kernel()                         # first call pays one-off initialisation
        self.samples: list[float] = []
        self.times: list[float] = []     # when each sample ended
        self.spent = 0.0                 # wall time taken by the samples themselves

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.times.append(time.perf_counter())
        self.spent += self.times[-1] - t0

    def factor(self) -> float:
        """Multiply a raw time by this to get normalised seconds (run median)."""
        return NOMINAL_S / statistics.median(self.samples)

    def factor_at(self, start: float, end: float) -> float:
        """Factor for work done in [start, end]: mean of the samples around it."""
        k = bisect.bisect_right(self.times, start)
        around = self.samples[max(k - 1, 0):k + 1]
        return NOMINAL_S / statistics.fmean(around)
