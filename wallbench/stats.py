"""Summary arithmetic for the wall-clock benchmark (no repro imports).

Kept free of the program under test so the rules the benchmark reports by
can be unit-tested on their own:

* a timing is reported as its median and a tail percentile, and the tail is
  only reported where at least :data:`MIN_BEYOND` samples lie beyond it;
* online latency runs from when a frame was *due*, not from when the
  generator got round to reading it, so a stalled generator shows up as
  latency.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "nearest_rank",
    "supported_percentile",
    "tail",
    "due_latencies",
]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def nearest_rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    return min(n, max(1, math.ceil(pct / 100.0 * n)))


def supported_percentile(n: int, nominal: float) -> float | None:
    """The highest percentile <= ``nominal`` with :data:`MIN_BEYOND` samples past it.

    Percentiles are taken by nearest rank, so ``n - rank`` samples lie
    strictly beyond the reported one.  Returns ``nominal`` when the sample
    supports it, a lower percentile (to 0.1) when it does not, and ``None``
    when not even the median has that many samples past it.
    """
    if n - nearest_rank(n, min(nominal, 50.0)) < MIN_BEYOND:
        return None
    if n - nearest_rank(n, nominal) >= MIN_BEYOND:
        return float(nominal)
    # Largest rank leaving MIN_BEYOND samples past it, as a percentile.
    pct = math.floor((n - MIN_BEYOND) / n * 1000.0) / 10.0
    while n - nearest_rank(n, pct) < MIN_BEYOND:
        pct = round(pct - 0.1, 1)
    return pct


def tail(values, nominal: float) -> dict:
    """Median and tail percentile of ``values`` under the beyond-rule.

    Returns ``{"n", "p50", "pct", "tail"}`` where ``pct`` is the percentile
    actually reported (``nominal`` unless the sample is too small) and
    ``tail`` its nearest-rank value; values are ``None`` with no samples.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n == 0:
        return {"n": 0, "p50": None, "pct": None, "tail": None}
    pct = supported_percentile(n, nominal)
    return {
        "n": n,
        "p50": float(xs[nearest_rank(n, 50.0) - 1]),
        "pct": pct,
        "tail": None if pct is None else float(xs[nearest_rank(n, pct) - 1]),
    }


def due_latencies(first_read, fps, index, read_done, latency):
    """Per-frame latency from due time, and the generator's lateness.

    A paced stream's frame ``index`` is due at ``first_read + index / fps``,
    where ``first_read`` is when the generator started reading the stream's
    first frame.  The runtime stamps a frame's latency from when its read
    finished (``read_done``), so the frame completed at ``read_done +
    latency`` and its due-time latency adds the generator's lateness
    ``read_done - due``.  All times in seconds; returns
    ``(due_latency, lateness)`` arrays.
    """
    index = np.asarray(index, dtype=np.float64)
    read_done = np.asarray(read_done, dtype=np.float64)
    due = first_read + index / fps
    lateness = read_done - due
    return lateness + np.asarray(latency, dtype=np.float64), lateness
