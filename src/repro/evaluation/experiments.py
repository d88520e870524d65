"""Shared experiment configuration.

Centralises the knobs every bench uses, honouring environment variables so
a fast default run and a paper-faithful run use the same code paths:

* ``REPRO_REALIZATIONS`` — ensemble size for "Expected" series (paper: 100;
  default here: 20 to keep the bench suite responsive),
* ``REPRO_HOP_SOURCES`` — BFS sources for sampled hop plots (0 = exact),
* ``REPRO_KRONFIT_ITERATIONS`` — gradient iterations for the KronFit
  baseline,
* ``REPRO_N_STARTS`` — independent Metropolis chains per KronFit fit
  (multi-start: best final log-likelihood wins, deterministic tie-break;
  default 1 = the historical single chain, bit-identical),
* ``REPRO_EPSILON`` / ``REPRO_DELTA`` — the privacy budget of the private
  estimator,
* ``REPRO_SEED`` — root seed every harness derives its streams from.

Parallel/caching knobs (consumed by :mod:`repro.runtime`):

* ``REPRO_N_JOBS`` — worker processes for trial ensembles (default 1 =
  serial; ``0`` or negative = all cores).  Results are bit-identical for
  any value: per-trial RNG streams depend only on the root seed and the
  trial index,
* ``REPRO_CACHE_DIR`` — directory memoizing completed trials on disk
  (default: empty = caching disabled).  A rerun with the same
  configuration executes zero trials; changing any knob that feeds a
  trial (or the trial code itself) invalidates the affected entries.

Counting-kernel knobs (consumed by :mod:`repro.stats.kernels`):

* ``REPRO_BLOCK_SIZE`` — rows per block of the blocked A² counting pass
  (default 0 = auto: rows are packed until a block's predicted product
  size reaches a fixed entry budget, bounding peak memory).  Any value
  yields bit-identical statistics; the knob only trades peak memory
  against per-block overhead.  The stats layer reads the environment at
  pass time; ``config.block_size`` mirrors the knob so bench artifacts
  can record it (``benchmarks/bench_stats.py`` writes it into
  ``BENCH_stats.json``).
* ``REPRO_KERNEL_BACKEND`` — execution engine of *both* native-kernel
  families (default ``auto``): the blocked A² counting pass and the
  KronFit Metropolis chain (:mod:`repro.native`).  ``auto`` prefers the
  fused compiled-C ``cext`` kernels and silently falls back to the
  pure-Python references (blocked ``scipy`` SpGEMM / numpy chain); naming an
  unavailable backend fails loudly at use time.  Results are
  bit-identical across backends; the knob only selects how fast they
  are computed.  Mirrored as ``config.kernel_backend`` for bench
  provenance (and threaded into Table 1's KronFit trials), like the
  block size.
* ``REPRO_KERNEL_THREADS`` — threads the chain kernel shards chains
  across when a multi-start KronFit fit advances all its chains in one
  native call (default 1; ``0`` = all usable cores; never more than
  the chain count).
  Purely a throughput knob — chains are data-independent, so results
  are bit-identical for any value.  Mirrored as
  ``config.kernel_threads`` and threaded into Table 1 / scenario
  KronFit fits.

CI sets ``REPRO_REALIZATIONS=2`` with ``REPRO_N_JOBS=2`` so one figure
bench exercises the full parallel harness end-to-end in minutes; paper
runs use ``REPRO_REALIZATIONS=100`` with as many jobs as the machine has
cores and a persistent ``REPRO_CACHE_DIR`` so interrupted ensembles
resume instead of restarting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.native.registry import KERNEL_BACKEND_CHOICES

__all__ = ["ExperimentConfig", "default_config", "FIGURE_DATASETS"]

# Dataset per paper figure, in figure order.
FIGURE_DATASETS = {
    1: "ca-grqc",
    2: "as20",
    3: "ca-hepth",
    4: "synthetic-kronecker",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the benches (see module docstring for env overrides)."""

    epsilon: float = 0.2
    delta: float = 0.01
    realizations: int = 20
    hop_sources: int = 512
    svd_rank: int = 50
    kronfit_iterations: int = 30
    n_starts: int = 1  # KronFit chains per fit; best log-likelihood wins
    seed: int = 20120330  # the PAIS'12 workshop date
    n_jobs: int = 1  # trial-engine workers; 0 or negative = all cores
    cache_dir: str = ""  # trial-cache directory; empty = caching disabled
    block_size: int = 0  # A²-pass rows per block; 0 = auto-tuned
    kernel_backend: str = "auto"  # A²-pass engine; auto = fused if available
    kernel_threads: int = 1  # chain kernel threads; 0 = all cores

    @property
    def trial_cache(self) -> str | None:
        """The cache argument for :func:`repro.runtime.run_trials`."""
        return self.cache_dir or None


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from exc


def _env_choice(name: str, fallback: str, choices: tuple[str, ...]) -> str:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return fallback
    if raw not in choices:
        raise ValueError(
            f"environment variable {name} must be one of {', '.join(choices)}, got {raw!r}"
        )
    return raw


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(
            f"environment variable {name} must be a number, got {raw!r}"
        ) from exc


def default_config() -> ExperimentConfig:
    """The configuration benches run with, after environment overrides."""
    base = ExperimentConfig()
    return ExperimentConfig(
        epsilon=_env_float("REPRO_EPSILON", base.epsilon),
        delta=_env_float("REPRO_DELTA", base.delta),
        realizations=_env_int("REPRO_REALIZATIONS", base.realizations),
        hop_sources=_env_int("REPRO_HOP_SOURCES", base.hop_sources),
        svd_rank=_env_int("REPRO_SVD_RANK", base.svd_rank),
        kronfit_iterations=_env_int("REPRO_KRONFIT_ITERATIONS", base.kronfit_iterations),
        n_starts=_env_int("REPRO_N_STARTS", base.n_starts),
        seed=_env_int("REPRO_SEED", base.seed),
        n_jobs=_env_int("REPRO_N_JOBS", base.n_jobs),
        cache_dir=os.environ.get("REPRO_CACHE_DIR", base.cache_dir),
        block_size=_env_int("REPRO_BLOCK_SIZE", base.block_size),
        kernel_backend=_env_choice(
            "REPRO_KERNEL_BACKEND", base.kernel_backend, KERNEL_BACKEND_CHOICES
        ),
        kernel_threads=_env_int("REPRO_KERNEL_THREADS", base.kernel_threads),
    )
