"""Host calibration: a fixed numpy gather/XOR kernel timed during the run.

Shared hosts change speed by up to 1.6x within seconds, and the change
moves every timing of the run alike.  The benchmark therefore times this
kernel (fixed shape, fixed data, no code from the program) between its
own operations, and reports each timing as a multiple of the kernel's
duration around that moment: unit ``cal``, or ``keys/cal`` for a rate.
A ratio of two timings taken seconds apart on such a host is steady to a
few per cent where the raw times are not.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence

import numpy as np

#: 4 MB table (larger than L2) walked by 16 dependent gathers of 2048 keys.
TABLE_WORDS = 1 << 19
KEYS = 2048
ROUNDS = 16
#: A timing is scaled by the median kernel time of the samples nearest it:
#: about half a second of samples.  Fewer let the kernel's own
#: sample-to-sample jitter into every scaled timing, which widened the
#: update tail of a steady run by a factor of two to three.
NEIGHBOURS = 25
#: Seconds between samples: short next to the host's speed changes.
EVERY = 0.02


class Calibration:
    """Kernel samples with their wall-clock times."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 1 << 63, TABLE_WORDS, dtype=np.uint64)
        self.start = rng.integers(0, TABLE_WORDS, KEYS).astype(np.intp)
        self.mask = np.uint64(TABLE_WORDS - 1)
        self.times: List[float] = []
        self.durations: List[float] = []

    def kernel(self) -> np.ndarray:
        index = self.start
        shift = np.uint64(17)
        for _ in range(ROUNDS):
            values = self.table[index]
            values ^= values >> shift
            index = (values & self.mask).astype(np.intp)
        return index

    def sample(self) -> None:
        # The first pass refills the caches the workload evicted; the
        # second, timed, pass tracks the host's speed alone.
        self.kernel()
        started = time.perf_counter()
        self.kernel()
        ended = time.perf_counter()
        self.times.append(ended)
        self.durations.append(ended - started)

    def maybe_sample(self) -> None:
        """Sample if ``EVERY`` seconds passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY:
            self.sample()

    def scale_at(self, moments: Sequence[float]) -> List[float]:
        """Median kernel duration of the samples nearest each moment."""
        if not self.durations:
            raise ValueError("no calibration samples were taken")
        half = NEIGHBOURS // 2
        count = len(self.times)
        scales = []
        for moment in moments:
            centre = bisect.bisect_left(self.times, moment)
            low = max(0, min(centre - half, count - NEIGHBOURS))
            scales.append(statistics.median(
                self.durations[low:low + NEIGHBOURS]))
        return scales

    def calibrated(self, moments: Sequence[float],
                   seconds: Sequence[float]) -> List[float]:
        """Each timing in ``seconds`` as a multiple of the local kernel time."""
        return [value / scale
                for value, scale in zip(seconds, self.scale_at(moments))]
