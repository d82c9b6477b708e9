"""Percentiles that refuse to report a tail they have not sampled."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The percentile has fewer than ``MIN_BEYOND`` samples beyond it."""


def samples_beyond(count: int, q: float) -> int:
    """Samples ranked strictly above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 100) of ``samples``.

    Raises :class:`TooFewSamples` when fewer than ``MIN_BEYOND`` samples
    lie beyond the requested rank: p99 needs 1000 samples, the median 20.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} outside (0, 100)")
    count = len(samples)
    if samples_beyond(count, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {count} samples has "
            f"{max(0, samples_beyond(count, q))} beyond it; "
            f"need {MIN_BEYOND}")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * count)) - 1]


def blocked_percentile(samples: Sequence[float], q: float, block: int) -> float:
    """Median over consecutive blocks of ``samples`` of each block's
    percentile ``q``.

    ``samples`` is cut, in order, into as many blocks of at least
    ``block`` samples as it holds, so a stretch of slow samples (a host
    stall) moves one block's tail instead of the whole run's.  Every
    block must pass :func:`percentile`'s rule on its own.
    """
    blocks = max(1, len(samples) // block)
    size = len(samples) / blocks
    return statistics.median(
        percentile(samples[round(index * size):round((index + 1) * size)], q)
        for index in range(blocks))
