"""The plain-float Nelder–Mead port against ``scipy.optimize.minimize``.

KronMom's refine stage uses ``repro.kronecker.kronmom._nelder_mead``
instead of scipy's Nelder–Mead to shed its per-step numpy overhead.  Its
fits stay those of the scipy path only while the port takes the same
steps, so every case here must agree with scipy to the last bit in
``fun``, ``x``, ``nit``, ``nfev`` and the final simplex.  A change to
scipy's Nelder–Mead then fails here instead of drifting silently.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np
import pytest
import scipy.optimize

from repro.kronecker.kronmom import (
    _NELDER_MEAD_OPTIONS,
    DEFAULT_FEATURES,
    KronMomEstimator,
    _nelder_mead,
)
from repro.stats.counts import MatchingStatistics


def _bits(values) -> list[str]:
    return [float(value).hex() for value in np.ravel(values)]


def _assert_same_as_scipy(func, x0):
    ours = _nelder_mead(func, x0)
    theirs = scipy.optimize.minimize(
        lambda x: func(x.tolist()), np.array(x0, dtype=float),
        method="Nelder-Mead", options=_NELDER_MEAD_OPTIONS,
    )
    assert _bits([ours.fun]) == _bits([theirs.fun])
    assert _bits(ours.x) == _bits(theirs.x)
    assert (ours.nit, ours.nfev) == (theirs.nit, theirs.nfev)
    simplex, values = theirs.final_simplex
    assert _bits(ours.simplex) == _bits(simplex)
    assert _bits(ours.fsim) == _bits(values)
    return ours


def rosenbrock(x) -> float:
    total = 0.0
    for left, right in zip(x[:-1], x[1:]):
        total += 100.0 * (right - left * left) ** 2 + (1.0 - left) ** 2
    return total


def hashed_noise(x) -> float:
    """A pseudo-random value per point: contractions keep failing, so the
    simplex shrinks again and again and never meets the tolerances."""
    return zlib.crc32(struct.pack("3d", *x)) / 2**32


def terraced(x) -> float:
    """A quadratic bowl cut into flat terraces: simplex values tie, and on
    these starts a stable sort of them would take other steps than
    scipy's ``np.argsort`` does."""
    a, b, c = x
    return math.floor(20 * ((a - 0.2) ** 2 + 2 * (b - 0.5) ** 2 + 3 * (c - 0.7) ** 2)) / 20


def _kronmom_objective(distance, normalization, features, statistics, k):
    estimator = KronMomEstimator(
        distance=distance, normalization=normalization, features=features
    )
    observed = np.array([max(getattr(statistics, name), 1.0) for name in features])
    start, _ = estimator._grid_stage(observed, k)
    return estimator._refine_objective(observed, k), start.tolist()


@pytest.mark.parametrize(
    "distance, normalization, features, statistics, k",
    [
        ("squared", "observed_squared", DEFAULT_FEATURES,
         MatchingStatistics(28980.0, 753725.0, 22816684.0, 27037.0), 13),
        ("absolute", "expected", DEFAULT_FEATURES,
         MatchingStatistics(26467.0, 507035.0, 12054906.0, 991.0), 13),
        ("squared", "expected_squared", ("edges", "triangles"),
         MatchingStatistics(21293.0, 278319.0, 3785724.0, 464.0), 14),
        ("absolute", "observed", DEFAULT_FEATURES,
         MatchingStatistics(28412.75, 761390.5, -1834.25, -57.5), 13),
    ],
)
def test_kronmom_objectives_match_scipy(distance, normalization, features, statistics, k):
    objective, start = _kronmom_objective(distance, normalization, features, statistics, k)
    _assert_same_as_scipy(objective, start)
    jittered = np.clip(np.array(start) + [0.07, -0.05, 0.09], 0.0, 1.0)
    _assert_same_as_scipy(objective, jittered.tolist())


def test_kronmom_objective_from_a_start_with_zero_coordinates():
    objective, _ = _kronmom_objective(
        "squared", "observed_squared", DEFAULT_FEATURES,
        MatchingStatistics(26467.0, 507035.0, 12054906.0, 991.0), 13,
    )
    _assert_same_as_scipy(objective, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("x0", [[-1.2, 1.0], [-1.2, 1.0, 0.5], [0.0, 0.0, 0.0]])
def test_rosenbrock_matches_scipy(x0):
    result = _assert_same_as_scipy(rosenbrock, x0)
    assert result.fun < 1e-6


def test_shrink_heavy_objective_matches_scipy():
    result = _assert_same_as_scipy(hashed_noise, [0.4, -0.3, 0.25])
    # Without shrinks an iteration costs at most two evaluations.
    assert result.nfev > 4 + 2 * (result.nit - 1)
    assert result.nit == _NELDER_MEAD_OPTIONS["maxiter"]


@pytest.mark.parametrize("x0", [[0.98, 0.4, 0.61], [0.7, 0.12, 0.55], [0.87, 0.12, 0.05]])
def test_tied_values_match_scipy(x0):
    result = _assert_same_as_scipy(terraced, x0)
    assert len(set(result.fsim)) < len(result.fsim)
