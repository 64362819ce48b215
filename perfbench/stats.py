"""Order statistics for the benchmark: percentiles with their sample support."""

import math
import statistics


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100] (numpy's default rule).

    Between the order statistics at ranks floor(r) and floor(r)+1, where
    r = q/100 * (n-1). Raises ValueError on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50.0)


def samples_beyond(n, q):
    """How many of n samples are ranked above the q-th percentile.

    The percentile sits at rank r = q/100 * (n-1) (ranks 0..n-1), so the
    samples at ranks floor(r)+1 .. n-1 lie beyond it: n - 1 - floor(r). A
    percentile is supported when at least ten samples lie beyond it.
    """
    if n <= 0:
        return 0
    return n - 1 - int(math.floor(q / 100.0 * (n - 1)))


def tail(values, q):
    """(percentile, samples beyond it) — a tail figure with its support."""
    return percentile(values, q), samples_beyond(len(values), q)


def quartile_spread(values):
    """(Q3 - Q1) / median, with statistics.quantiles(n=4)'s exclusive rule."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def slice_percentiles(values, q, slices):
    """The q-th percentile of each of `slices` consecutive equal-count slices
    of `values` (the last slice takes the remainder)."""
    if len(values) < slices:
        raise ValueError(f"{len(values)} values cannot fill {slices} slices")
    size = len(values) // slices
    bounds = [k * size for k in range(slices)] + [len(values)]
    return [percentile(values[bounds[k]:bounds[k + 1]], q) for k in range(slices)]


def median_of_slices(values, q, slices):
    """The median of slice_percentiles(): a host stall that covers less than
    half of the slices does not move it."""
    return median(slice_percentiles(values, q, slices))
