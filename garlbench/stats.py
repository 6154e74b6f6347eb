"""Order statistics that state their sample count.

A tail percentile is only as good as the samples beyond it: the p99 of
200 latencies is the second-largest value, one slow request decides it.
:func:`percentile` therefore refuses (returns ``None``) any percentile
with fewer than :data:`MIN_TAIL` samples at or above its rank, and every
result carries the sample count it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MIN_TAIL", "Percentile", "percentile", "median", "quiet_median",
           "blocked_tail"]

#: Samples required strictly beyond a tail percentile's rank.
MIN_TAIL = 10


@dataclass(frozen=True)
class Percentile:
    """One percentile value and the sample count it was taken from."""

    q: float
    value: float
    n: int


def percentile(values, q: float) -> Percentile | None:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``), or ``None``.

    The median (``q == 50``) needs one sample.  A higher percentile needs
    at least :data:`MIN_TAIL` samples beyond it, i.e.
    ``n * (1 - q / 100) >= MIN_TAIL``; below that the tail is noise and
    ``None`` is returned instead of a number.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile q must lie in (0, 100), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    if q > 50 and n * (1.0 - q / 100.0) < MIN_TAIL - 1e-9:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    return Percentile(q, float(ordered[rank - 1]), n)


def median(values) -> Percentile | None:
    """The sample median (mean of the two middle values for even ``n``)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    mid = n // 2
    value = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return Percentile(50.0, float(value), n)


def quiet_median(samples, tol: float = 1.2,
                 min_kept: int = 100) -> Percentile | None:
    """Median of the values timed while the host was quiet.

    ``samples`` are ``(probe_before, value, probe_after)`` triples: each
    value is bracketed by two timings of the same fixed probe
    (:func:`host.quiet_probe`).  A value is kept when both of its probes
    ran within ``tol`` of the run's quiet probe time (the 1st percentile
    of all probes); when fewer than ``min_kept`` pass, the ``min_kept``
    values with the quietest probes are kept instead.  The probes, not
    the values, decide, so a value that is slow for its own reasons is
    kept like any other.  ``n`` is the kept count.
    """
    samples = list(samples)
    if not samples:
        return None
    probes = sorted(p for a, _, b in samples for p in (a, b))
    limit = tol * probes[(len(probes) - 1) // 100]
    by_noise = sorted(samples, key=lambda s: max(s[0], s[2]))
    kept = [v for a, v, b in by_noise if max(a, b) <= limit]
    if len(kept) < min_kept:
        kept = [v for _, v, _ in by_noise[:min_kept]]
    return median(kept)


def blocked_tail(values, q: float, max_blocks: int = 5) -> Percentile | None:
    """Median of ``q``-th percentiles over consecutive blocks of ``values``.

    ``values`` in time order are cut into as many equal blocks as each
    still support the percentile, up to ``max_blocks``; the result is
    the median of the block percentiles (``n`` is the total count).  A
    burst of host interference in one block moves one block's tail, not
    the reported one.  With a single block this is :func:`percentile`.
    """
    values = list(values)
    need = math.ceil(MIN_TAIL / (1.0 - q / 100.0) - 1e-9)
    blocks = min(max_blocks, len(values) // need)
    if blocks == 0:
        return None
    size = len(values) // blocks
    tails = [percentile(values[i * size:(i + 1) * size], q).value
             for i in range(blocks)]
    return Percentile(q, median(tails).value, len(values))
