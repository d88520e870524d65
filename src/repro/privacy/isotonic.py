"""Isotonic (monotone) least-squares regression by pool-adjacent-violators.

Hay et al.'s constrained inference step projects the noisy sorted degree
sequence onto the cone of non-decreasing sequences in L2.  The minimiser
is the classic PAV solution

    d̄_i = min_{j ≥ i} max_{h ≤ j} mean(d̂[h..j]),

computed here with the stack-based pool-adjacent-violators algorithm in
O(n), on a stack of Python floats.  Implemented from scratch (no sklearn
dependency); tests check the KKT conditions, compare against a
brute-force QP on small inputs, and hold the result bit-identical to the
earlier numpy-indexed stack.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["isotonic_regression"]


def isotonic_regression(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """L2 projection of ``values`` onto non-decreasing sequences.

    Parameters
    ----------
    values:
        1-D array to regress.
    weights:
        Optional positive weights for a weighted projection (uniform by
        default — the degree-release use case).

    Returns
    -------
    The unique non-decreasing array minimising
    ``Σ weights * (result − values)²``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValidationError(f"values must be 1-D, got shape {values.shape}")
    n = values.size
    if n == 0:
        return values.copy()
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != values.shape:
            raise ValidationError("weights must match values in shape")
        if np.any(weights <= 0):
            raise ValidationError("weights must be positive")

    # Each stack block is (mean, weight, count); adjacent blocks violating
    # monotonicity are merged (weighted average) as values stream in.  The
    # stack lives in Python lists: per-element numpy indexing would cost
    # several times the arithmetic.
    block_mean: list[float] = []
    block_weight: list[float] = []
    block_count: list[int] = []
    for mean, weight in zip(values.tolist(), weights.tolist()):
        count = 1
        while block_mean and block_mean[-1] >= mean:
            previous_weight = block_weight.pop()
            merged_weight = previous_weight + weight
            mean = (previous_weight * block_mean.pop() + weight * mean) / merged_weight
            weight = merged_weight
            count += block_count.pop()
        block_mean.append(mean)
        block_weight.append(weight)
        block_count.append(count)
    return np.repeat(np.array(block_mean, dtype=np.float64), block_count)
