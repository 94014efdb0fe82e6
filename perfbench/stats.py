"""The run-to-run spread from which the benchmark's bounds are set.

The spread of a set of runs is the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`, exclusive method) as a share
of the median. spread.py takes it across runs with different seeds.
"""

import statistics


def spread(values):
    """Inter-quartile distance as a share of the median (0 when the median is 0)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return 0.0 if mid == 0 else (q3 - q1) / abs(mid)
