"""Percentiles and spreads, with the sample-count rule built in."""

from __future__ import annotations

import math
from collections.abc import Sequence

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The percentile asked for has fewer than ``MIN_BEYOND`` samples beyond it."""


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie on the far side of percentile ``q``."""
    return n * min(q, 100.0 - q) / 100.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of percentile ``q`` (0 < q < 100).

    The estimate is a weighted mean of all order statistics, the weights
    being the Beta((n+1)q, (n+1)(1-q)) density over the ranks, so it
    averages the few percent of samples around the percentile.  A request
    mix is a handful of query sizes, its latencies come in lumps, and
    where the percentile falls between two lumps a single order
    statistic jumps from one to the other between runs; the weighted
    mean moves smoothly.  A uniform speed-up still moves it one for one.

    Refuses (``TooFewSamples``) unless at least ``MIN_BEYOND`` samples lie
    beyond the percentile, so a p90 needs 100 samples and a median 20.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    n = len(samples)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it, "
            f"{n} samples give {samples_beyond(n, q):.1f}"
        )
    a = (n + 1) * q / 100.0
    b = (n + 1) * (1.0 - q / 100.0)
    # Beta log-density at each rank's midpoint; n >= 20 makes the midpoint
    # rule as good as the exact cell integrals.
    logs = [
        (a - 1.0) * math.log((i + 0.5) / n) + (b - 1.0) * math.log(1.0 - (i + 0.5) / n)
        for i in range(n)
    ]
    peak = max(logs)
    weights = [math.exp(value - peak) for value in logs]
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, sorted(samples))) / total


def percentile_or_none(samples: Sequence[float], q: float) -> float | None:
    """``percentile``, or ``None`` where it would refuse."""
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return None


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
