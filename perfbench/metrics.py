"""The per-layer arithmetic: which spans and counts make which metrics.

``BENCHMARK.json`` declares the metrics' names, units and directions;
this module only groups the tracer's spans and counts into them.
Per-layer values are *per pass* (see ``workloads.py`` for what a pass
holds).
"""

from __future__ import annotations

__all__ = [
    "EXACT",
    "STRUCTURAL",
    "delta",
    "exact_view",
    "layer_values",
]

# Spans whose call count and busy time are reported.
_CALLS = (
    "moments.efv",
    "kronmom.fit_statistics",
    "kronmom.minimize",
    "privacy.charge",
    "stats.matching_statistics",
    "sampling.sample_skg",
    "likelihood.run",
    "chain.kernel",
    "likelihood.set_theta",
    "likelihood.gradient",
    "runtime.run_trials",
)
_BUSY = _CALLS + (
    "privacy.release",
    "privacy.degree_release",
    "privacy.triangle_release",
    "chain.draw",
)
_SELF = ("likelihood.run", "kronfit.fit")
_COUNTS = (
    "kronmom.minimize.nit",
    "kronmom.minimize.nfev",
    "stats.kernels.passes",
    "sampling.edges",
    "likelihood.proposals",
    "likelihood.score_touches",
    "runtime.executed",
    "runtime.retried",
    "runtime.failed",
    "runtime.pool_restarts",
)
_SERVE_COUNTS = (
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.models_fitted",
    "serve.rejected_429",
)

# Counts that must repeat exactly across runs of one seed.
EXACT = frozenset(
    {f"{span}.calls" for span in _CALLS} | set(_COUNTS) | set(_SERVE_COUNTS)
)
# Counts a serve-mix pass fixes by construction (its fits see fresh
# noise every pass, so solver counts differ between passes).
STRUCTURAL = frozenset(
    set(_SERVE_COUNTS)
    | {"stats.kernels.passes", "sampling.sample_skg.calls", "kronmom.fit_statistics.calls"}
)

def delta(after: dict, before: dict) -> dict:
    """Per-key difference of two tracer snapshots."""
    return {
        section: {
            key: value - before.get(section, {}).get(key, 0)
            for key, value in values.items()
        }
        for section, values in after.items()
    }


def exact_view(snapshot: dict) -> dict:
    """The exact-count metrics one snapshot (delta) implies."""
    values = {f"{span}.calls": snapshot["calls"].get(span, 0) for span in _CALLS}
    values.update({name: snapshot["counts"].get(name, 0) for name in _COUNTS})
    values.update(
        {name: snapshot["counts"][name] for name in _SERVE_COUNTS if name in snapshot["counts"]}
    )
    return values


def layer_values(first: dict, total: dict, passes: int) -> dict:
    """Per-pass layer metrics: exact counts from ``first``, times averaged.

    ``first`` is the first traced pass; ``total`` covers all ``passes``
    traced passes.
    """
    if passes < 1:
        raise ValueError("no traced pass")
    values = {key: float(value) for key, value in exact_view(first).items()}
    for span in _BUSY:
        values[f"{span}.busy_s"] = total["busy"].get(span, 0.0) / passes
    for span in _SELF:
        values[f"{span}.self_s"] = total["self"].get(span, 0.0) / passes
    fits = total["counts"].get("kronfit.fits", 0)
    values["likelihood.accept_ratio"] = (
        total["counts"].get("kronfit.acceptance_sum", 0.0) / fits if fits else 0.0
    )
    return values
