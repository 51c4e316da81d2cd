import math
import warnings

import numpy as np
import pytest

from qnt.stats import (
    aggregate_mse,
    aggregate_mse_rows,
    crb_mergecast,
    crb_spam_m,
    crb_spam_s,
    substream,
)


class TestSubstream:
    def test_reproducible(self):
        a = substream(123, "exp", 0).random(10)
        b = substream(123, "exp", 0).random(10)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = substream(123, "exp", 0).random(10)
        b = substream(123, "exp", 1).random(10)
        assert not np.array_equal(a, b)

    def test_distinct_labels_differ(self):
        a = substream(123, "merge", 0).random(10)
        b = substream(123, "uni", 0).random(10)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        # crude independence check across 200 paired streams
        xs = np.array([substream(9, "a", i).random() for i in range(200)])
        ys = np.array([substream(9, "b", i).random() for i in range(200)])
        assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.2


class TestAggregateMse:
    def test_exact_estimates(self):
        agg = aggregate_mse([0.5, 0.5, 0.5], truth=0.5)
        assert agg.mse == 0.0
        assert agg.sq_err_std == 0.0
        assert agg.n_trials == 3

    def test_symmetric_deviation(self):
        delta = 0.03
        agg = aggregate_mse([0.5 + delta, 0.5 - delta], truth=0.5)
        assert agg.mse == pytest.approx(delta**2, abs=1e-15)

    def test_permutation_invariant(self, rng):
        values = list(rng.normal(0.5, 0.1, size=50))
        a = aggregate_mse(values, 0.5)
        b = aggregate_mse(values[::-1], 0.5)
        assert a.mse == pytest.approx(b.mse, abs=1e-15)
        assert a.mse_std == pytest.approx(b.mse_std, abs=1e-15)

    def test_mse_std_scaling(self):
        agg = aggregate_mse([0.4, 0.6, 0.5, 0.55], truth=0.5)
        assert agg.mse_std == pytest.approx(agg.sq_err_std / math.sqrt(4), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_mse([], 0.5)

    @pytest.mark.parametrize("degenerate", [False, True], ids=["finite", "nan-and-inf"])
    @pytest.mark.parametrize("n_trials", [1, 10, 50, 1000])
    def test_rows_match_one_dimensional_reduction_bit_for_bit(self, rng, n_trials, degenerate):
        truths = rng.uniform(0.8, 1.0, size=250)
        matrix = rng.normal(0.9, 0.05, size=(250, n_trials))
        if degenerate:  # NaN and ±inf entries, and an all-NaN row
            cells = rng.random(matrix.shape)
            matrix[cells < 0.15] = math.nan
            matrix[(cells >= 0.15) & (cells < 0.2)] = math.inf
            matrix[(cells >= 0.2) & (cells < 0.25)] = -math.inf
            matrix[7] = math.nan
        # a column-major matrix is made row-major first, so it aggregates the same
        for estimates in (matrix, np.asfortranarray(matrix)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                aggs = aggregate_mse_rows(estimates, truths)
            for row, truth, agg in zip(matrix, truths, aggs):
                finite = np.isfinite(row)
                assert (agg.truth, agg.n_trials, agg.n_degenerate) == (truth, n_trials, n_trials - finite.sum())
                if not finite.any():
                    assert math.isnan(agg.mse) and math.isnan(agg.sq_err_std) and math.isnan(agg.mse_std)
                    continue
                sq = np.float_power(row[finite] - truth, 2)
                assert (agg.mse, agg.sq_err_std) == (float(sq.mean()), float(sq.std()))
                assert agg.mse_std == agg.sq_err_std / math.sqrt(finite.sum())
        if degenerate:
            assert aggs[7].n_degenerate == n_trials  # the all-NaN row was aggregated

    def test_rows_need_one_truth_per_row(self):
        with pytest.raises(ValueError):
            aggregate_mse_rows(np.zeros((3, 4)), [0.5])


class TestCrbMergecast:
    def test_reference_point(self):
        value = crb_mergecast(10_000, 10_000, 0.5, 0.25, 0.35)
        term_merge = 0.5 * (1 - 0.04375) / (10_000 * 0.0875)
        term_uni = 0.25 * (1 - 0.0875) / (10_000 * 0.0875)
        assert term_merge == pytest.approx(5.464285714285714e-4 / 1, rel=1e-12)
        assert value == pytest.approx(term_merge + term_uni, rel=1e-12)
        assert value == pytest.approx(8.071428571428572e-4, rel=1e-9)

    def test_large_sample_limit(self):
        assert crb_mergecast(10**12, 10**12, 0.5, 0.25, 0.35) < 1e-11

    def test_doubling_halves(self):
        base = crb_mergecast(1000, 2000, 0.5, 0.25, 0.35, 0.9, 0.9)
        assert crb_mergecast(2000, 4000, 0.5, 0.25, 0.35, 0.9, 0.9) == pytest.approx(
            base / 2, rel=1e-12
        )

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            crb_mergecast(100, 100, 0.5, 0.0, 0.35)


class TestCrbSpam:
    def test_s_reference_point(self):
        value = crb_spam_s(10_000, 10_000, 0.5, 0.25, 0.9, 0.9)
        qq = 0.125
        uni = 1 - 0.81 * qq
        merged = 1 - 0.9 * 0.81 * qq
        expected = 0.9 * uni / (10_000 * merged * 0.9 * qq) + merged / (10_000 * uni * 0.9 * qq)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_m_reference_point(self):
        value = crb_spam_m(10_000, 10_000, 0.5, 0.25, 0.7, 0.7)
        qq = 0.125
        uni = 1 - 0.49 * qq
        summed = 1 - 0.7**3 * qq
        expected = 0.7 * uni / (10_000 * summed * 0.7 * qq) + summed / (10_000 * uni * 0.7 * qq)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_s_m_exchange_symmetry(self, rng):
        # swapping the roles of s and m swaps the two bounds
        for _ in range(50):
            q1, q2 = rng.uniform(0.1, 0.9, size=2)
            s, m = rng.uniform(0.2, 1.0, size=2)
            assert crb_spam_s(500, 700, q1, q2, s, m) == pytest.approx(
                crb_spam_m(500, 700, q1, q2, m, s), rel=1e-12
            )

    def test_positive_on_parameter_grid(self):
        for q in np.linspace(0.1, 0.9, 5):
            for s in np.linspace(0.1, 0.9, 5):
                for m in np.linspace(0.1, 0.9, 5):
                    assert crb_spam_s(100, 100, q, q, s, m) > 0
                    assert crb_spam_m(100, 100, q, q, s, m) > 0
                    assert math.isfinite(crb_spam_s(100, 100, q, q, s, m))

    def test_doubling_halves(self):
        base = crb_spam_s(1000, 3000, 0.5, 0.25, 0.9, 0.9)
        assert crb_spam_s(2000, 6000, 0.5, 0.25, 0.9, 0.9) == pytest.approx(base / 2, rel=1e-12)
