"""Summary statistics used by the benchmark report."""
from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: with n samples that is the sorted
    value at index n - beyond - 1, the 100 * (n - beyond) / n percentile,
    so 100 samples give p90. Below 2 * ``beyond`` samples that percentile
    would lie under the median and is no tail, so None is returned.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 2 * beyond:
        return None
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n


def cell_median_geomean(samples: dict[str, list[float]]) -> float:
    """Geometric mean over cells of each cell's median.

    Cells differ in cost by up to 6x, so the pooled median would sit on
    the gap between two cells and jump between them from run to run.
    Taking each cell's median first weighs every cell the same and keeps
    the statistic on within-cell values; the geometric mean then lets a
    change to any one cell move it by that cell's share, and averages the
    run-to-run noise of all cells instead of reading one.
    """
    medians = [statistics.median(v) for v in samples.values() if v]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))
