"""KronMom: Gleich–Owen moment matching (the estimator the paper privatises).

The estimator solves the paper's Eq. (2):

    min_{a, b, c}  Σ_F  Dist(F, E_{a,b,c}(F)) / Norm(F, E_{a,b,c}(F))

over features F drawn from {edges, hairpins, tripins, triangles}, where
``E_{a,b,c}(F)`` are the closed-form expectations of
:mod:`repro.kronecker.moments` and the observed values may be exact counts
(non-private KronMom) or DP approximations (the paper's Algorithm 1 feeds
its noisy statistics into this very routine).

Both distance functions (squared / absolute) and all four normalisations
(F, F², E, E²) of the paper are implemented; Gleich & Owen report
``DistSq`` with ``NormF²`` as the robust default, which is ours as well.
Optimisation is a dense vectorised grid search (the closed forms broadcast
over parameter arrays) followed by Nelder–Mead refinement from the best
grid point and jittered copies of it, with the identifiability convention
a ≥ c applied at the end.  The refine stage runs in plain floats: the
objective uses :func:`~repro.kronecker.moments.expected_moments_scalar`,
and :func:`_nelder_mead` is a port of scipy's Nelder–Mead that takes the
same steps to the last bit (tests/kronecker/test_neldermead.py holds it to
``scipy.optimize.minimize``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import EstimationError, ValidationError
from repro.graphs.graph import Graph
from repro.graphs.operations import next_power_of_two_exponent
from repro.kronecker.initiator import Initiator
from repro.kronecker.moments import expected_feature_vector, expected_moments_scalar
from repro.stats.counts import MatchingStatistics, matching_statistics
from repro.utils.validation import check_integer

__all__ = [
    "KronMomEstimator",
    "MomentMatchResult",
    "DISTANCES",
    "NORMALIZATIONS",
    "DEFAULT_FEATURES",
]

DEFAULT_FEATURES = ("edges", "hairpins", "tripins", "triangles")
# Position of each feature in expected_moments_scalar's result.
_MOMENT_INDEX = {name: i for i, name in enumerate(DEFAULT_FEATURES)}

# Observed DP statistics can be negative after noising; they are floored
# here before matching (an estimator detail, not a privacy issue — the
# floor is data-independent post-processing).
_FEATURE_FLOOR = 1.0


# Distances and normalisations take arrays (grid stage) and floats (refine
# stage) alike and give the same bits on both: ``x * x`` is what numpy's
# ``x**2`` computes on arrays, and ``abs`` is ``np.abs`` on arrays.


def _dist_squared(observed, expected):
    difference = observed - expected
    return difference * difference


def _dist_absolute(observed, expected):
    return abs(observed - expected)


DISTANCES = {
    "squared": _dist_squared,
    "absolute": _dist_absolute,
}


def _norm_observed(observed, expected):
    return observed


def _norm_observed_squared(observed, expected):
    return observed * observed


def _norm_expected(observed, expected):
    return expected


def _norm_expected_squared(observed, expected):
    return expected * expected


NORMALIZATIONS = {
    "observed": _norm_observed,
    "observed_squared": _norm_observed_squared,
    "expected": _norm_expected,
    "expected_squared": _norm_expected_squared,
}

# Denominators are floored at this value to keep the objective finite when
# an expected count vanishes (e.g. b = c = 0 grid corners).
_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class MomentMatchResult:
    """Outcome of a moment-matching solve.

    Attributes
    ----------
    initiator:
        Fitted initiator (canonical, a >= c).
    objective:
        Final objective value.
    k:
        Kronecker order the expectations were evaluated at.
    observed:
        The feature values that were matched (post-flooring).
    features:
        Names of the matched features, in objective order.
    n_restarts:
        Number of Nelder–Mead refinements run.
    """

    initiator: Initiator
    objective: float
    k: int
    observed: MatchingStatistics
    features: tuple[str, ...]
    n_restarts: int


class KronMomEstimator:
    """Moment-matching estimation of a 2×2 symmetric SKG initiator.

    Parameters
    ----------
    distance, normalization:
        Keys into :data:`DISTANCES` / :data:`NORMALIZATIONS` selecting the
        paper's Dist and Norm functions (defaults: ``"squared"``,
        ``"observed_squared"`` — the combination Gleich & Owen found robust).
    features:
        Subset of ``{"edges", "hairpins", "tripins", "triangles"}`` to match.
    grid_points:
        Grid resolution per axis for the global search stage.
    n_refinements:
        How many of the best grid points get Nelder–Mead refinement.

    Examples
    --------
    >>> graph = Initiator(0.99, 0.45, 0.25).sample(10, seed=7)
    >>> result = KronMomEstimator().fit(graph)
    >>> abs(result.initiator.b - 0.45) < 0.2
    True
    """

    def __init__(
        self,
        *,
        distance: str = "squared",
        normalization: str = "observed_squared",
        features: tuple[str, ...] = DEFAULT_FEATURES,
        grid_points: int = 21,
        n_refinements: int = 5,
    ) -> None:
        if distance not in DISTANCES:
            raise ValidationError(
                f"unknown distance {distance!r}; options: {sorted(DISTANCES)}"
            )
        if normalization not in NORMALIZATIONS:
            raise ValidationError(
                f"unknown normalization {normalization!r}; "
                f"options: {sorted(NORMALIZATIONS)}"
            )
        if not features:
            raise ValidationError("at least one feature must be matched")
        self.distance = distance
        self.normalization = normalization
        self.features = tuple(features)
        self.grid_points = check_integer(grid_points, "grid_points", minimum=3)
        self.n_refinements = check_integer(n_refinements, "n_refinements", minimum=1)

    # ------------------------------------------------------------------

    def fit(self, graph: Graph) -> MomentMatchResult:
        """Fit to the exact matching statistics of ``graph``."""
        if graph.n_nodes < 2:
            raise EstimationError("graph too small for moment matching")
        k = next_power_of_two_exponent(graph.n_nodes)
        return self.fit_statistics(matching_statistics(graph), k)

    def fit_statistics(self, observed: MatchingStatistics, k: int) -> MomentMatchResult:
        """Fit to externally supplied (possibly noisy) statistics.

        This is the entry point Algorithm 1 uses: the private estimator
        computes DP statistics and hands them to the same solver as the
        non-private KronMom.
        """
        k = check_integer(k, "k", minimum=1)
        floored = MatchingStatistics(
            edges=max(float(observed.edges), _FEATURE_FLOOR),
            hairpins=max(float(observed.hairpins), _FEATURE_FLOOR),
            tripins=max(float(observed.tripins), _FEATURE_FLOOR),
            triangles=max(float(observed.triangles), _FEATURE_FLOOR),
        )
        observed_vector = np.array(
            [getattr(floored, name) for name in self.features], dtype=np.float64
        )
        best_params, best_value = self._grid_stage(observed_vector, k)
        best_params, best_value = self._refine_stage(
            observed_vector, k, best_params, best_value
        )
        a, b, c = (float(np.clip(p, 0.0, 1.0)) for p in best_params)
        return MomentMatchResult(
            initiator=Initiator(a, b, c).canonical(),
            objective=float(best_value),
            k=k,
            observed=floored,
            features=self.features,
            n_restarts=self.n_refinements,
        )

    # ------------------------------------------------------------------

    def _objective_vectorized(self, observed: np.ndarray, a, b, c, k: int):
        expected = expected_feature_vector(a, b, c, k, self.features)
        observed_cols = observed.reshape((-1,) + (1,) * (expected.ndim - 1))
        dist = DISTANCES[self.distance](observed_cols, expected)
        norm = NORMALIZATIONS[self.normalization](observed_cols, expected)
        norm = np.maximum(np.abs(norm), _NORM_FLOOR)
        return (dist / norm).sum(axis=0)

    def _grid_stage(self, observed: np.ndarray, k: int) -> tuple[np.ndarray, float]:
        axis = np.linspace(0.0, 1.0, self.grid_points)
        a, b, c = np.meshgrid(axis, axis, axis, indexing="ij")
        # Identifiability: only scan a >= c (the objective is symmetric).
        mask = a >= c
        values = np.full(a.shape, np.inf)
        values[mask] = self._objective_vectorized(
            observed, a[mask], b[mask], c[mask], k
        )
        flat_best = int(np.argmin(values))
        index = np.unravel_index(flat_best, values.shape)
        best = np.array([a[index], b[index], c[index]])
        return best, float(values[index])

    def _refine_objective(
        self, observed: np.ndarray, k: int
    ) -> Callable[[Sequence[float]], float]:
        """The grid stage's objective at one point, in plain floats.

        A point outside the unit cube is clipped into it and pays
        ``1e3`` times its L1 distance to the cube.  Terms are summed left
        to right, numpy's order for a sum of up to four.
        """
        distance = DISTANCES[self.distance]
        normalization = NORMALIZATIONS[self.normalization]
        matched = [
            (_MOMENT_INDEX[name], value)
            for name, value in zip(self.features, observed.tolist())
        ]

        def objective(point: Sequence[float]) -> float:
            a, b, c = point
            clipped_a, clipped_b, clipped_c = _clip_unit(a), _clip_unit(b), _clip_unit(c)
            penalty = (
                abs(a - clipped_a) + abs(b - clipped_b) + abs(c - clipped_c)
            ) * 1e3
            moments = expected_moments_scalar(clipped_a, clipped_b, clipped_c, k)
            # Every term is +0.0 or more (or NaN), so starting from 0.0
            # changes no bits.
            value = 0.0
            for index, seen in matched:
                expected = moments[index]
                norm = abs(normalization(seen, expected))
                value += distance(seen, expected) / (
                    _NORM_FLOOR if norm < _NORM_FLOOR else norm
                )
            return value + penalty

        return objective

    def _refine_stage(
        self,
        observed: np.ndarray,
        k: int,
        grid_best: np.ndarray,
        grid_value: float,
    ) -> tuple[np.ndarray, float]:
        objective = self._refine_objective(observed, k)
        rng = np.random.default_rng(12345)  # deterministic restart jitter
        best_params, best_value = grid_best.copy(), grid_value
        starts = [grid_best]
        for _ in range(self.n_refinements - 1):
            jitter = rng.normal(scale=0.08, size=3)
            starts.append(np.clip(grid_best + jitter, 0.0, 1.0))
        for start in starts:
            result = _nelder_mead(objective, start.tolist())
            if result.fun < best_value:
                best_value = result.fun
                best_params = np.clip(result.x, 0.0, 1.0)
        return best_params, best_value


def _clip_unit(x: float) -> float:
    """``np.clip(x, 0.0, 1.0)`` on a float: keeps -0.0 and NaN as they are."""
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


# The refine stage's stopping rule, in scipy's option names.
_NELDER_MEAD_OPTIONS = {"xatol": 1e-6, "fatol": 1e-10, "maxiter": 2000}


class _NelderMeadResult(NamedTuple):
    """Outcome of :func:`_nelder_mead`, named as in scipy's ``OptimizeResult``."""

    x: list[float]
    fun: float
    nit: int
    nfev: int
    simplex: list[list[float]]
    fsim: list[float]


def _sorted_by_value(simplex, values):
    # np.argsort, not sorted(): it is what scipy sorts with, and on ties
    # its order is not always that of a stable sort.
    order = np.array(values).argsort().tolist()
    return [simplex[i] for i in order], [values[i] for i in order]


def _nelder_mead(
    func: Callable[[Sequence[float]], float], x0: Sequence[float]
) -> _NelderMeadResult:
    """Minimise ``func`` from ``x0`` by Nelder–Mead, in plain floats.

    A port of scipy 1.17's ``_minimize_neldermead`` (standard
    coefficients, scipy's initial simplex, no ``maxfev``): every vertex
    and function value equals what ``scipy.optimize.minimize(func, x0,
    method="Nelder-Mead", options=_NELDER_MEAD_OPTIONS)`` computes, with
    the per-step numpy overhead gone.  ``func`` gets each vertex as a
    list and must not change it.
    """
    xatol = _NELDER_MEAD_OPTIONS["xatol"]
    fatol = _NELDER_MEAD_OPTIONS["fatol"]
    maxiter = _NELDER_MEAD_OPTIONS["maxiter"]
    x0 = [float(x) for x in x0]
    n = len(x0)
    simplex = [x0]
    for i in range(n):
        vertex = list(x0)
        vertex[i] = (1 + 0.05) * vertex[i] if vertex[i] != 0 else 0.00025
        simplex.append(vertex)
    values = [func(vertex) for vertex in simplex]
    nfev = n + 1
    # scipy sorts the first simplex twice; an unstable sort may reorder ties.
    simplex, values = _sorted_by_value(simplex, values)
    simplex, values = _sorted_by_value(simplex, values)
    iterations = 1
    while iterations < maxiter:
        best, best_value = simplex[0], values[0]
        if all(
            abs(x - y) <= xatol for vertex in simplex[1:] for x, y in zip(vertex, best)
        ) and all(abs(best_value - value) <= fatol for value in values[1:]):
            break
        centroid = best
        for vertex in simplex[1:-1]:
            centroid = [x + y for x, y in zip(centroid, vertex)]
        centroid = [x / n for x in centroid]
        worst = simplex[-1]
        reflected = [2 * x - y for x, y in zip(centroid, worst)]
        f_reflected = func(reflected)
        nfev += 1
        shrink = False
        if f_reflected < values[0]:
            expanded = [3 * x - 2 * y for x, y in zip(centroid, worst)]
            f_expanded = func(expanded)
            nfev += 1
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-1]:
            contracted = [1.5 * x - 0.5 * y for x, y in zip(centroid, worst)]
            f_contracted = func(contracted)
            nfev += 1
            if f_contracted <= f_reflected:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                shrink = True
        else:
            contracted = [0.5 * x + 0.5 * y for x, y in zip(centroid, worst)]
            f_contracted = func(contracted)
            nfev += 1
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                simplex[j] = [x + 0.5 * (y - x) for x, y in zip(best, simplex[j])]
                values[j] = func(simplex[j])
            nfev += n
        iterations += 1
        simplex, values = _sorted_by_value(simplex, values)
    # np.min, like scipy: a NaN value makes the minimum NaN.
    return _NelderMeadResult(
        simplex[0], float(np.min(values)), iterations, nfev, simplex, values
    )
