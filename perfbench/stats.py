"""Latency percentiles, the operation kinds at them, and run-to-run spread."""

import statistics
from collections import Counter

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
KIND_WINDOW = 5   # samples on each side of a quantile that decide its kind


def tail_percentile(latencies, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples): the (beyond+1)-th largest sample,
    the percentile it sits at, 100 * (n - beyond) / n, and the sample count n.
    With n <= beyond there is no such percentile and the value is None.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= beyond:
        return None, None, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def median_index(n):
    """The index of the sorted sample closest to the median (lower middle)."""
    return (n - 1) // 2


def quantile_kinds(samples, beyond=TAIL_BEYOND, window=KIND_WINDOW):
    """The operation kinds at the median and at the tail sample of a run.

    `samples` are (kind, latency) pairs.  The kind at a quantile is the most
    common kind among the 2 * window + 1 samples ranked around it.  One
    outlier of a neighbouring kind cannot change it; a quantile that sits on
    a boundary between kinds still flips between them from run to run.
    Returns (median kind, tail kind)."""
    ordered = [kind for kind, _ in sorted(samples, key=lambda s: s[1])]
    n = len(ordered)

    def around(i):
        return Counter(ordered[max(0, i - window):i + window + 1]).most_common(1)[0][0]

    return around(median_index(n)), around(n - beyond - 1) if n > beyond else None


def mix_margins(mix, n, beyond=TAIL_BEYOND):
    """Where the median and the tail fall in a fixed mix of operation kinds.

    `mix` is a list of (kind, share of operations, nominal latency); `n` is
    the number of samples in a run.  Kinds are laid out in order of nominal
    latency.  Returns {"median": (kind, margin), "tail": (kind, margin)},
    where margin is the number of samples between the quantile and the
    nearest edge of that kind's block; a small margin means the quantile
    sits on a boundary between kinds.
    """
    blocks = []
    lower = 0.0
    for kind, share, _ in sorted(mix, key=lambda m: m[2]):
        blocks.append((kind, lower * n, (lower + share) * n))
        lower += share
    out = {}
    for label, position in (("median", median_index(n) + 0.5), ("tail", n - beyond - 0.5)):
        for kind, lo, hi in blocks:
            if lo <= position < hi:
                out[label] = (kind, min(position - lo, hi - position))
                break
    return out


def spread(values):
    """(median, first quartile, third quartile, interquartile range / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")
