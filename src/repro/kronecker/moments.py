"""Gleich–Owen closed-form expected counts under the SKG model (paper Eq. 1).

For Θ = [[a, b], [b, c]] and P = Θ^{⊗k} with the paper's undirected
semantics (zero diagonal, each unordered pair an independent edge), the
expected counts of edges E, hairpins H (2-stars), triangles Δ and tripins
T (3-stars) admit closed forms: every term is ``(polynomial in a, b, c)^k``
because sums over node bit-patterns factor across the k Kronecker levels.

The expressions below follow Eq. (1) of the paper (equivalently Gleich &
Owen §4); tests validate every formula against
:func:`repro.kronecker.kronpower.brute_force_expected_counts` on dense
Kronecker powers for k ≤ 4 and against Monte-Carlo sampling.

The named functions are vectorised in ``(a, b, c)`` via numpy broadcasting,
which the moment-matching grid search relies on.
:func:`expected_moments_scalar` is their plain-float twin for the
Nelder–Mead refine stage, where numpy's per-call overhead on 0-d inputs
costs about twenty times the arithmetic; it returns the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.kronecker.initiator import as_initiator
from repro.stats.counts import MatchingStatistics
from repro.utils.validation import check_integer

__all__ = [
    "expected_edges",
    "expected_hairpins",
    "expected_triangles",
    "expected_tripins",
    "expected_statistics",
    "expected_feature_vector",
    "expected_moments_scalar",
]


# Each closed form has one body, shared by the vectorised functions (numpy
# arrays, the grid stage) and expected_moments_scalar (Python floats, the
# refine stage).  The bits agree because each term takes, on both, the
# power routine the vectorised forms take on 0-d inputs; there are three:
#
# * cubes of the inputs (a³, b³, c³) go through numpy's array ``power``
#   ufunc, whose SIMD code (AVX-512 on x86) differs from libm ``pow`` in the
#   last bit of a few percent of inputs, so callers pass them in: ``a**3``
#   on arrays, one ``np.power`` call on a 3-element array for floats;
# * squares of the inputs are ``np.square`` on arrays, which is ``x * x``;
# * every compound base (``(a + b)**2``, ``(…)**k``) is a numpy-scalar
#   ``**`` on 0-d inputs, which is libm ``pow``, the same as Python's float
#   ``**``.  On arrays ``**`` stays numpy's, as the grid has always had it.


def _edges(a, b, c, k):
    return 0.5 * ((a + 2 * b + c) ** k - (a + c) ** k)


def _hairpins(a, b, c, k):
    a2, b2, c2 = a * a, b * b, c * c
    term_pairs = ((a + b) ** 2 + (b + c) ** 2) ** k
    term_center = (a * (a + b) + c * (b + c)) ** k
    term_square = (a2 + 2 * b2 + c2) ** k
    term_diag = (a2 + c2) ** k
    return 0.5 * (term_pairs - 2 * term_center - term_square + 2 * term_diag)


def _triangles(a, b, c, a3, c3, k):
    b2 = b * b
    closed = (a3 + 3 * b2 * (a + c) + c3) ** k
    one_repeat = (a * (a * a + b2) + c * (b2 + c * c)) ** k
    all_equal = (a3 + c3) ** k
    return (closed - 3 * one_repeat + 2 * all_equal) / 6.0


def _tripins(a, b, c, a3, b3, c3, k):
    b2 = b * b
    cubes = a3 + c3
    b_diag = b * (a * a + c * c)
    bb_sides = b2 * (a + c)
    cube_rows = ((a + b) ** 3 + (b + c) ** 3) ** k  # Σ r₁³
    center_hit = (a * (a + b) ** 2 + c * (b + c) ** 2) ** k  # Σ r₁² D
    pair_mixed = (cubes + b_diag + bb_sides + 2 * b3) ** k  # Σ r₁ r₂
    all_three = (a3 + 2 * b3 + c3) ** k  # Σ r₃
    two_match_sq = (cubes + bb_sides) ** k  # Σ D r₂
    two_match_lin = (cubes + b_diag) ** k  # Σ r₁ D²
    diag_only = cubes**k  # Σ D³
    return (
        cube_rows
        - 3 * center_hit
        - 3 * pair_mixed
        + 2 * all_three
        + 3 * two_match_sq
        + 6 * two_match_lin
        - 6 * diag_only
    ) / 6.0


def _as_arrays(a, b, c):
    return np.asarray(a, float), np.asarray(b, float), np.asarray(c, float)


def expected_edges(a, b, c, k: int):
    """E[E] = ½[(a + 2b + c)^k − (a + c)^k]."""
    k = check_integer(k, "k", minimum=1)
    return _edges(*_as_arrays(a, b, c), k)


def expected_hairpins(a, b, c, k: int):
    """E[H] = ½[((a+b)² + (b+c)²)^k − 2(a(a+b) + c(b+c))^k
    − (a² + 2b² + c²)^k + 2(a² + c²)^k]."""
    k = check_integer(k, "k", minimum=1)
    return _hairpins(*_as_arrays(a, b, c), k)


def expected_triangles(a, b, c, k: int):
    """E[Δ] = ⅙[(a³ + 3b²(a+c) + c³)^k − 3(a(a²+b²) + c(b²+c²))^k
    + 2(a³ + c³)^k]."""
    k = check_integer(k, "k", minimum=1)
    a, b, c = _as_arrays(a, b, c)
    return _triangles(a, b, c, a**3, c**3, k)


def expected_tripins(a, b, c, k: int):
    """E[T] = ⅙[((a+b)³ + (b+c)³)^k − 3(a(a+b)² + c(b+c)²)^k
    − 3(a³ + c³ + b(a²+c²) + b²(a+c) + 2b³)^k + 2(a³ + 2b³ + c³)^k
    + 3(a³ + c³ + b²(a+c))^k + 6(a³ + c³ + b(a²+c²))^k − 6(a³ + c³)^k].

    Derivation: E[T] = Σ_v e₃(row v) with
    ``e₃ = (s₁³ − 3 s₁ s₂ + 2 s₃)/6`` and ``s_m(v) = r_m(v) − D(v)^m``,
    where ``r_m(v) = Σ_u P_uv^m`` (full row) and ``D(v) = P_vv``.  Each of
    the seven resulting sums over v factors across the k Kronecker levels
    into a ``(polynomial)^k`` term.  Note: the coefficient pattern printed
    in the paper's Eq. (1) (… + 5(…)^k + 4(…)^k …) is OCR-corrupted; the
    coefficients below (+3 and +6 on those terms) are the ones that agree
    with brute-force expectations — see tests/kronecker/test_moments.py.
    """
    k = check_integer(k, "k", minimum=1)
    a, b, c = _as_arrays(a, b, c)
    return _tripins(a, b, c, a**3, b**3, c**3, k)


def expected_statistics(initiator, k: int) -> MatchingStatistics:
    """All four expected matching features of Θ^{⊗k} as a named tuple."""
    theta = as_initiator(initiator)
    return MatchingStatistics(
        edges=float(expected_edges(theta.a, theta.b, theta.c, k)),
        hairpins=float(expected_hairpins(theta.a, theta.b, theta.c, k)),
        tripins=float(expected_tripins(theta.a, theta.b, theta.c, k)),
        triangles=float(expected_triangles(theta.a, theta.b, theta.c, k)),
    )


_FEATURE_FUNCTIONS = {
    "edges": expected_edges,
    "hairpins": expected_hairpins,
    "tripins": expected_tripins,
    "triangles": expected_triangles,
}


def expected_feature_vector(a, b, c, k: int, features: tuple[str, ...]):
    """Stack of expected feature values (broadcast over a, b, c).

    ``features`` names a subset of ``{"edges", "hairpins", "tripins",
    "triangles"}``; the result has shape ``(len(features),) + broadcast``.
    """
    rows = []
    for name in features:
        try:
            function = _FEATURE_FUNCTIONS[name]
        except KeyError:
            known = ", ".join(_FEATURE_FUNCTIONS)
            raise ValueError(f"unknown feature {name!r}; known features: {known}") from None
        rows.append(np.asarray(function(a, b, c, k), dtype=np.float64))
    if len(rows) > 1:
        rows = np.broadcast_arrays(*rows)
    return np.stack(rows)


def expected_moments_scalar(a: float, b: float, c: float, k: int) -> tuple[float, ...]:
    """(E, H, T, Δ) at one point, in plain floats, bit-identical to the
    vectorised functions on 0-d inputs (see the power-routine rule above
    ``_edges``).  The refine stage clips its points into [0, 1] first."""
    a3, b3, c3 = np.power(np.array((a, b, c)), 3).tolist()
    return (
        _edges(a, b, c, k),
        _hairpins(a, b, c, k),
        _tripins(a, b, c, a3, b3, c3, k),
        _triangles(a, b, c, a3, c3, k),
    )
