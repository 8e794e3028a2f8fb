"""Statistics the benchmark reports, kept apart so they can be tested.

Percentiles use the nearest-rank rule on the sorted samples. A percentile p
is reported only when at least 10 samples lie above it, so its value rests
on more than a handful of outliers; `percentile` raises otherwise.
"""

import math
import statistics

MIN_TAIL_SAMPLES = 10


def tail_count(n, p):
    """Samples above the nearest-rank p-th percentile of n samples."""
    return n - nearest_rank(n, p)


def nearest_rank(n, p):
    """1-based rank of the p-th percentile (0 < p < 100) among n samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < p < 100:
        raise ValueError("percentile must lie in (0, 100)")
    return max(1, math.ceil(p / 100.0 * n))


def percentile(samples, p):
    """Nearest-rank p-th percentile; needs MIN_TAIL_SAMPLES samples above."""
    xs = sorted(samples)
    above = tail_count(len(xs), p)
    if above < MIN_TAIL_SAMPLES:
        raise ValueError(f"p{p} of {len(xs)} samples has only {above} above"
                         f" it; need {MIN_TAIL_SAMPLES}")
    return xs[nearest_rank(len(xs), p) - 1]


def geomean_of_cell_medians(cells):
    """Geometric mean over cells of each cell's median (TPC-H power-test
    style): every cell weighs the same however many samples it holds.
    `cells` maps a cell name to its list of positive samples."""
    medians = [statistics.median(xs) for xs in cells.values() if xs]
    if not medians:
        raise ValueError("no samples")
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def ratio(numerator, base):
    """numerator / base; 0 when the base is 0 (nothing was attempted)."""
    return numerator / base if base else 0.0


def spread(values):
    """(median, first quartile, third quartile, (q3 - q1) / median) of a
    list of run values, quartiles as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ratio(q3 - q1, abs(med))
