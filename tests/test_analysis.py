"""Tests for the analysis utilities: bounds, fitting, metrics, reporting, experiments."""

import math

import numpy as np
import pytest

from repro.analysis import (
    compare_trackers,
    deterministic_message_bound,
    fit_growth,
    format_table,
    monotone_variability_bound,
    nearly_monotone_variability_bound,
    random_walk_variability_bound,
    randomized_message_bound,
    repeat_variability,
    single_site_message_bound,
    summarize_trials,
)
from repro.analysis.bounds import (
    biased_walk_variability_bound,
    block_partition_message_bound,
    deterministic_tracing_space_bound,
    liu_fair_coin_message_bound,
    monotone_message_bound_cormode,
    monotone_message_bound_huang,
    randomized_tracing_space_bound,
)
from repro.baselines import NaiveCounter
from repro.core import DeterministicCounter
from repro.exceptions import ConfigurationError
from repro.streams import monotone_stream, random_walk_stream


class TestBounds:
    def test_monotone_bound_is_logarithmic(self):
        assert monotone_variability_bound(1_000) == pytest.approx(1 + math.log(1_000))

    def test_nearly_monotone_bound_grows_with_beta(self):
        assert nearly_monotone_variability_bound(2.0, 1_000) > nearly_monotone_variability_bound(
            1.0, 1_000
        )

    def test_random_walk_bound_shape(self):
        assert random_walk_variability_bound(10_000) == pytest.approx(100 * math.log(10_000))

    def test_biased_walk_bound_decreases_with_drift(self):
        assert biased_walk_variability_bound(1_000, 0.5) < biased_walk_variability_bound(
            1_000, 0.1
        )

    def test_message_bounds_monotone_in_parameters(self):
        assert deterministic_message_bound(4, 0.1, 100) > deterministic_message_bound(4, 0.1, 10)
        assert deterministic_message_bound(4, 0.05, 100) > deterministic_message_bound(4, 0.1, 100)
        assert randomized_message_bound(16, 0.1, 100) > randomized_message_bound(4, 0.1, 100)

    def test_randomized_cheaper_than_deterministic_for_many_sites(self):
        assert randomized_message_bound(100, 0.01, 50) < deterministic_message_bound(100, 0.01, 50)

    def test_block_partition_bound(self):
        assert block_partition_message_bound(4, 10) == pytest.approx(25 * 4 * 10 + 12)

    def test_baseline_bounds_positive(self):
        assert monotone_message_bound_cormode(4, 0.1, 1_000) > 0
        assert monotone_message_bound_huang(4, 0.1, 1_000) > 0
        assert liu_fair_coin_message_bound(4, 0.1, 1_000) > 0

    def test_single_site_bound(self):
        assert single_site_message_bound(0.1, 50) == pytest.approx(1.1 / 0.1 * 50)

    def test_tracing_bounds(self):
        assert deterministic_tracing_space_bound(0.1, 10, 1_000) == pytest.approx(
            10 / 0.1 * math.log2(1_000)
        )
        assert randomized_tracing_space_bound(0.1, 10) == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            monotone_variability_bound(0)
        with pytest.raises(ConfigurationError):
            deterministic_message_bound(0, 0.1, 10)


class TestFitGrowth:
    def test_recovers_sqrt_shape(self):
        xs = [100, 400, 1_600, 6_400, 25_600]
        ys = [3.0 * math.sqrt(x) for x in xs]
        fit = fit_growth(xs, ys)
        assert fit.best_shape == "sqrt"
        assert fit.best_constant == pytest.approx(3.0, rel=1e-6)

    def test_recovers_log_shape(self):
        xs = [10, 100, 1_000, 10_000, 100_000]
        ys = [7.0 * math.log(x) for x in xs]
        fit = fit_growth(xs, ys)
        assert fit.best_shape == "log"

    def test_recovers_linear_shape_with_noise(self):
        rng = np.random.default_rng(1)
        xs = list(range(100, 2_100, 100))
        ys = [2.0 * x * (1 + rng.normal(0, 0.02)) for x in xs]
        fit = fit_growth(xs, ys)
        assert fit.best_shape in ("linear", "linear_log")
        assert fit.shape_is_consistent("linear", tolerance=0.1)

    def test_shape_is_consistent_rejects_wrong_shape(self):
        xs = [100, 400, 1_600, 6_400, 25_600]
        ys = [3.0 * x for x in xs]
        fit = fit_growth(xs, ys)
        assert not fit.shape_is_consistent("log", tolerance=0.25)

    def test_residual_of_unknown_shape_raises(self):
        fit = fit_growth([1, 2, 3], [1, 2, 3])
        with pytest.raises(ConfigurationError):
            fit.residual_of("cubic")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fit_growth([1, 2], [1, 2])
        with pytest.raises(ConfigurationError):
            fit_growth([1, 2, 3], [1, 2])
        with pytest.raises(ConfigurationError):
            fit_growth([0, 1, 2], [1, 2, 3])
        with pytest.raises(ConfigurationError):
            fit_growth([1, 2, 3], [1, 2, 3], shapes=["nope"])


class TestMetrics:
    def test_summary_statistics(self):
        summary = summarize_trials([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.median == pytest.approx(2.5)

    def test_as_row_length(self):
        assert len(summarize_trials([1.0, 2.0]).as_row()) == 7

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            summarize_trials([])


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 123.456]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "123.456" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])

    def test_float_rendering(self):
        table = format_table(["x"], [[0.0000001], [2.5], [3_000_000.0]])
        assert "1.000e-07" in table
        assert "2.5" in table
        assert "3.000e+06" in table


class TestExperiments:
    def test_compare_trackers(self):
        spec = monotone_stream(2_000)
        comparisons = compare_trackers(
            {"naive": NaiveCounter(2), "deterministic": DeterministicCounter(2, 0.1)},
            spec,
            num_sites=2,
            epsilon=0.1,
        )
        assert [c.name for c in comparisons] == ["naive", "deterministic"]
        naive, deterministic = comparisons
        assert naive.messages == 2_000
        assert deterministic.messages < naive.messages
        assert deterministic.max_relative_error <= 0.1 + 1e-12
        assert naive.variability == pytest.approx(deterministic.variability)

    def test_compare_trackers_requires_factories(self):
        with pytest.raises(ConfigurationError):
            compare_trackers({}, monotone_stream(10), num_sites=1, epsilon=0.1)

    def test_repeat_variability(self):
        stats = repeat_variability(
            lambda seed: random_walk_stream(1_000, seed=seed), trials=5, seed=3
        )
        assert stats["min"] <= stats["mean"] <= stats["max"]
        assert stats["std"] >= 0.0

    def test_repeat_variability_validation(self):
        with pytest.raises(ConfigurationError):
            repeat_variability(lambda seed: monotone_stream(10), trials=0)
