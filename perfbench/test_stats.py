"""Unit tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 60), 3)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(100, 91), 9)
        self.assertEqual(stats.samples_beyond(99, 90), 9)

    def test_highest_percentile_with_ten_beyond(self):
        # 100 samples: p90 leaves exactly 10 beyond, p91 only 9.
        self.assertEqual(stats.highest_tail_percentile(100), 90)
        # 1000 samples: p99 leaves 10 beyond.
        self.assertEqual(stats.highest_tail_percentile(1000), 99)
        # 50 samples: p80 leaves 10, p81 leaves 9.
        self.assertEqual(stats.highest_tail_percentile(50), 80)
        # 99 samples are one short of p90.
        self.assertLess(stats.highest_tail_percentile(99), 90)

    def test_too_few_samples(self):
        self.assertIsNone(stats.highest_tail_percentile(10))
        self.assertEqual(stats.highest_tail_percentile(11), 9)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)


class CalmSamples(unittest.TestCase):
    def test_keeps_samples_at_or_under_the_threshold(self):
        steal = [0.0, 0.05, 0.02, 0.01, 0.3]
        self.assertEqual(stats.calm_indices(steal, 0.02, 3), [0, 2, 3])

    def test_too_few_calm_takes_the_least_stolen(self):
        steal = [0.1, 0.05, 0.2, 0.01, 0.07]
        self.assertEqual(stats.calm_indices(steal, 0.02, 3), [1, 3, 4])

    def test_ties_keep_sample_order(self):
        self.assertEqual(stats.calm_indices([0.1, 0.1, 0.1], 0.02, 2), [0, 1])

    def test_fewer_samples_than_minimum(self):
        self.assertEqual(stats.calm_indices([0.3, 0.1], 0.02, 5), [0, 1])


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(stats.self_time((0.0, 10.0), []), 10.0)

    def test_disjoint_children(self):
        self.assertEqual(stats.self_time((0, 10), [(1, 3), (5, 6)]), 7)

    def test_overlapping_children_count_once(self):
        # Parallel rank spans overlap; their union, not their sum, is covered.
        self.assertEqual(stats.self_time((0, 10), [(1, 5), (2, 6), (3, 4)]), 5)

    def test_children_clipped_to_parent(self):
        self.assertEqual(stats.self_time((2, 10), [(0, 4), (9, 12)]), 5)

    def test_fully_covered(self):
        self.assertEqual(stats.self_time((0, 4), [(0, 2), (2, 4)]), 0)

    def test_union_ignores_empty_intervals(self):
        self.assertEqual(stats.union_length([(3, 3), (5, 4), (0, 1)]), 1)


class CrossRankWait(unittest.TestCase):
    def test_all_arrive_together(self):
        self.assertEqual(stats.cross_rank_wait([5.0, 5.0, 5.0]), 0.0)

    def test_mean_wait_for_last_arrival(self):
        # Last arrival at 4: waits 4, 2, 0, 2 -> mean 2.
        self.assertEqual(stats.cross_rank_wait([0, 2, 4, 2]), 2.0)

    def test_single_rank(self):
        self.assertEqual(stats.cross_rank_wait([3.0]), 0.0)

    def test_no_arrivals(self):
        with self.assertRaises(ValueError):
            stats.cross_rank_wait([])


class FailFrac(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(stats.fail_frac(100, 0), 0.0)
        self.assertEqual(stats.fail_frac(8, 2), 0.25)
        self.assertEqual(stats.fail_frac(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_frac(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_frac(5, 6)
        with self.assertRaises(ValueError):
            stats.fail_frac(5, -1)


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 11, 9, 10.5, 12, 9.5, 10.2, 10.8, 11.5, 9.8]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_values(self):
        self.assertEqual(stats.quartile_spread([2.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
