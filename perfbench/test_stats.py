"""Tests for the benchmark's statistics. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_of_100_samples_has_10_above(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.tail_count(100, 90), 10)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(reversed(xs), 50), 50)

    def test_p90_needs_100_samples(self):
        self.assertEqual(stats.tail_count(99, 90), 9)
        with self.assertRaises(ValueError):
            stats.percentile(range(99), 90)

    def test_nearest_rank_rounds_up(self):
        self.assertEqual(stats.nearest_rank(101, 50), 51)
        self.assertEqual(stats.nearest_rank(20, 50), 10)
        with self.assertRaises(ValueError):
            stats.nearest_rank(0, 50)
        with self.assertRaises(ValueError):
            stats.nearest_rank(10, 100)


class GeomeanTest(unittest.TestCase):
    def test_geomean_of_cell_medians(self):
        # Medians 2 and 8: geomean 4, whatever the cells' sample counts.
        cells = {"a": [1, 2, 3], "b": [8] * 50}
        self.assertAlmostEqual(stats.geomean_of_cell_medians(cells), 4.0)

    def test_even_cell_uses_middle_mean(self):
        self.assertAlmostEqual(
            stats.geomean_of_cell_medians({"a": [1, 3], "b": [4]}),
            math.sqrt(2 * 4))

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.geomean_of_cell_medians({"a": []})


class RatioTest(unittest.TestCase):
    def test_ratio_and_zero_base(self):
        self.assertEqual(stats.ratio(3, 4), 0.75)
        self.assertEqual(stats.ratio(5, 0), 0.0)

    def test_spread(self):
        med, q1, q3, iqr = stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertAlmostEqual(iqr, 1.0)


def report(**kw):
    rep = {"setup_s": [0.3, 0.1, 0.2], "generate_s": [0.05, 0.04],
           "wall_s": 2.0, "cpu_s": 3.0, "attempted": 101, "failed": 1,
           "cells": ["a", "b"],
           "samples": [[i % 2, float(i + 1), 2.0**20] for i in range(100)],
           "counters": {}}
    rep.update(kw)
    return rep


class MetricsTest(unittest.TestCase):
    def test_end_to_end(self):
        m = run.end_to_end(report())
        self.assertEqual(m["setup_s"], (0.2, "s"))
        self.assertEqual(m["qps"], (50.0, "1/s"))
        self.assertEqual(m["latency_p50_ms"][0], 50.0)
        self.assertEqual(m["latency_p90_ms"][0], 90.0)
        # Cell a holds 1, 3, .., 99 (median 50); b holds 2, .., 100 (51).
        self.assertAlmostEqual(m["latency_geomean_ms"][0], math.sqrt(50 * 51))
        self.assertEqual(m["cpu_ms_per_query"][0], 30.0)
        self.assertEqual(m["state_mb_mean"][0], 1.0)
        self.assertAlmostEqual(m["success_rate"][0], 100 / 101)

    def test_per_layer_ratios_state_their_base(self):
        counters = {"cache_hits": 30, "cache_misses": 10, "port_pruned": 5,
                    "aip_probe_rows": 20, "payload_bytes": 1000,
                    "frames_sent": 4, "install_ms": 6, "aip_queries": 3}
        m = run.per_layer(report(counters=counters), 100.0)
        self.assertEqual(m["sip.cache_lookups"][0], 40)
        self.assertEqual(m["sip.cache_hit_ratio"][0], 0.75)
        self.assertEqual(m["sip.aip_probe_rows"][0], 0.2)
        self.assertEqual(m["sip.prune_ratio"][0], 0.25)
        self.assertEqual(m["dist.bytes_per_frame"][0], 250)
        self.assertEqual(m["sip.install_ms"][0], 2)
        self.assertEqual(m["obs.trace_overhead"][0], -0.5)
        self.assertEqual(m["dist.checkpoints"][0], 0)


if __name__ == "__main__":
    unittest.main()
