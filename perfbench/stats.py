"""Arithmetic behind the perfbench metrics: percentiles, span self time,
cross-rank waits, failure fraction and run-to-run spread.

Kept free of I/O so test_stats.py can check each rule on hand-made inputs.
"""

import math
import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it.
TAIL_SAMPLES = 10


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n, q):
    """Samples of n strictly past the nearest-rank q-th percentile's rank."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def highest_tail_percentile(n, beyond=TAIL_SAMPLES):
    """Highest whole percentile with at least `beyond` of n samples past it,
    or None when n is too small for any."""
    for q in range(99, 0, -1):
        if samples_beyond(n, q) >= beyond:
            return q
    return None


def calm_indices(steal, threshold, minimum):
    """Indices, in order, of the samples taken while the hypervisor stole at
    most `threshold` of the host CPU time. When fewer than `minimum` are that
    calm, the `minimum` least-stolen samples instead (all, if fewer)."""
    calm = [i for i, s in enumerate(steal) if s <= threshold]
    if len(calm) >= minimum:
        return calm
    least = sorted(range(len(steal)), key=lambda i: steal[i])[:minimum]
    return sorted(least)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """A span's duration minus the part of it its children cover.

    `span` and each child are (start, end); children are clipped to the
    span, so a child that overhangs it only removes the overlapping part.
    """
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length(clipped)


def cross_rank_wait(starts):
    """Mean time each rank waits at a synchronised call for the last one to
    arrive, given every rank's arrival (span start) time."""
    if not starts:
        raise ValueError("no arrivals")
    last = max(starts)
    return sum(last - s for s in starts) / len(starts)


def fail_frac(attempted, failed):
    """Steps that threw or failed an output check over steps attempted."""
    if attempted <= 0:
        raise ValueError("no steps attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must be between 0 and attempted")
    return failed / attempted


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
    gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
