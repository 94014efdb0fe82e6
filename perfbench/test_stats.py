"""Tests of stats.py against values computed by hand.

Run: python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class SpreadTest(unittest.TestCase):
    # Exclusive method: the p-quantile sits at rank p * (n + 1).
    def test_spread_is_iqr_over_median(self):
        # n = 10: ranks 2.75, 5.5, 8.25 of 1..10 -> (8.25 - 2.75) / 5.5 = 1.0
        self.assertAlmostEqual(stats.spread(list(range(10, 0, -1))), 1.0)

    def test_tight_runs(self):
        # [99, 100, 100, 101, 102]: q1 = 99.5, q3 = 101.5, median 100 -> 0.02
        self.assertAlmostEqual(stats.spread([100, 102, 99, 101, 100]), 0.02)

    def test_identical_runs_have_no_spread(self):
        self.assertEqual(stats.spread([7.0] * 10), 0.0)

    def test_zero_median(self):
        self.assertEqual(stats.spread([0, 0, 0, 1]), 0.0)

    def test_negative_median_gives_positive_spread(self):
        # [-10, -8, -6, -4, -2]: q1 = -9, q3 = -3, median -6 -> 6 / 6 = 1.0
        self.assertAlmostEqual(stats.spread([-2, -4, -6, -8, -10]), 1.0)


if __name__ == "__main__":
    unittest.main()
