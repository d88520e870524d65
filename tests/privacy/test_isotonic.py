"""Tests for pool-adjacent-violators isotonic regression."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graphs.datasets import load_dataset
from repro.privacy.degree_release import release_sorted_degrees
from repro.privacy.isotonic import isotonic_regression

float_arrays = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=1,
    max_size=40,
).map(np.array)


class TestBasicCases:
    def test_sorted_input_unchanged(self):
        values = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(isotonic_regression(values), values)

    def test_reverse_sorted_becomes_global_mean(self):
        values = np.array([3.0, 2.0, 1.0])
        np.testing.assert_allclose(isotonic_regression(values), [2.0, 2.0, 2.0])

    def test_single_violation_pools_pair(self):
        values = np.array([1.0, 3.0, 2.0, 4.0])
        np.testing.assert_allclose(isotonic_regression(values), [1.0, 2.5, 2.5, 4.0])

    def test_empty(self):
        assert isotonic_regression(np.array([])).size == 0

    def test_single_element(self):
        np.testing.assert_array_equal(isotonic_regression(np.array([5.0])), [5.0])

    def test_constant(self):
        values = np.full(6, 2.5)
        np.testing.assert_array_equal(isotonic_regression(values), values)

    def test_weighted_projection(self):
        # A heavy first element dominates the pooled block mean.
        values = np.array([2.0, 0.0])
        weights = np.array([3.0, 1.0])
        np.testing.assert_allclose(isotonic_regression(values, weights), [1.5, 1.5])

    def test_2d_rejected(self):
        with pytest.raises(ValidationError):
            isotonic_regression(np.zeros((2, 2)))

    def test_weight_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            isotonic_regression(np.zeros(3), np.ones(2))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValidationError):
            isotonic_regression(np.zeros(2), np.array([1.0, 0.0]))


class TestAgainstScipyOracle:
    @given(values=float_arrays)
    @settings(max_examples=60)
    def test_matches_scipy(self, values):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        ours = isotonic_regression(values)
        theirs = scipy_optimize.isotonic_regression(values, increasing=True).x
        np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-9)


class TestProjectionProperties:
    @given(values=float_arrays)
    @settings(max_examples=60)
    def test_output_is_monotone(self, values):
        result = isotonic_regression(values)
        assert np.all(np.diff(result) >= -1e-9)

    @given(values=float_arrays)
    @settings(max_examples=60)
    def test_sum_preserved(self, values):
        # L2 projection onto the monotone cone preserves the (uniform-
        # weight) total: block means replace block values.
        result = isotonic_regression(values)
        assert result.sum() == pytest.approx(values.sum(), rel=1e-9, abs=1e-6)

    @given(values=float_arrays)
    @settings(max_examples=60)
    def test_idempotent(self, values):
        once = isotonic_regression(values)
        twice = isotonic_regression(once)
        np.testing.assert_allclose(once, twice, rtol=1e-12, atol=1e-12)

    @given(values=float_arrays)
    @settings(max_examples=40)
    def test_never_farther_than_any_monotone_vector(self, values):
        # Projection optimality spot check against the sorted input, which
        # is always a feasible monotone candidate.
        result = isotonic_regression(values)
        candidate = np.sort(values)
        assert np.sum((result - values) ** 2) <= np.sum(
            (candidate - values) ** 2
        ) + 1e-6


def _numpy_stack_pav(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The earlier implementation: the same stack, held in numpy arrays."""
    n = values.size
    block_mean = np.empty(n, dtype=np.float64)
    block_weight = np.empty(n, dtype=np.float64)
    block_count = np.empty(n, dtype=np.int64)
    top = -1
    for i in range(n):
        top += 1
        block_mean[top] = values[i]
        block_weight[top] = weights[i]
        block_count[top] = 1
        while top > 0 and block_mean[top - 1] >= block_mean[top]:
            merged_weight = block_weight[top - 1] + block_weight[top]
            block_mean[top - 1] = (
                block_weight[top - 1] * block_mean[top - 1]
                + block_weight[top] * block_mean[top]
            ) / merged_weight
            block_weight[top - 1] = merged_weight
            block_count[top - 1] += block_count[top]
            top -= 1
    return np.repeat(block_mean[: top + 1], block_count[: top + 1])


class TestBitIdenticalToTheNumpyStack:
    """The list-based stack must return the numpy-indexed stack's bits."""

    @pytest.mark.parametrize("dataset", ["ca-grqc", "as20"])
    @pytest.mark.parametrize("epsilon", [0.05, 1.0])
    def test_noisy_degree_sequences(self, dataset, epsilon):
        graph = load_dataset(dataset)
        for seed in range(3):
            noisy = release_sorted_degrees(graph, epsilon / 2, seed=seed).noisy
            expected = _numpy_stack_pav(noisy, np.ones(noisy.size))
            assert isotonic_regression(noisy).tobytes() == expected.tobytes()

    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.floats(min_value=1e-3, max_value=50),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_random_weighted_inputs(self, pairs):
        values = np.array([value for value, _ in pairs])
        weights = np.array([weight for _, weight in pairs])
        expected = _numpy_stack_pav(values, weights)
        assert isotonic_regression(values, weights).tobytes() == expected.tobytes()
