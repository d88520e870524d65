"""KronFit: the Leskovec–Faloutsos approximate MLE baseline.

This is the "KronFit" column of the paper's Table 1: gradient ascent on
the SKG log-likelihood, with the intractable sum over node correspondences
σ replaced by Metropolis sampling (see :mod:`repro.kronecker.likelihood`).

The public interface mirrors the other estimators: construct with
hyper-parameters, call :meth:`fit` with a graph, receive a
:class:`KronFitResult` carrying the fitted :class:`Initiator` and
convergence diagnostics.

**Multi-start fitting.**  The Metropolis chain mixes from its initial
correspondence, so a single run can settle on a local mode.  With
``n_starts=S > 1`` the estimator runs S independent chains — start 0 from
the degree-matched σ every single-start fit uses, starts 1..S−1 from
deterministic perturbations of it — and keeps the fit with the best final
log-likelihood (ties broken by the lowest start index, so the winner is
deterministic).

Two execution strategies produce the identical winner:

* ``multi_start="batched"`` (the default): all S chains advance inside
  one :class:`~repro.kronecker.likelihood.MultiChainSampler` — a single
  native call per proposal batch, sharded across threads by the
  ``kernel_threads`` / ``REPRO_KERNEL_THREADS`` knob — submitted as
  *one* task to the :mod:`repro.runtime` engine.  Per-start seeds are
  spawned from the estimator seed exactly as the trial engine spawns
  per-trial seeds, so every chain consumes the same stream as its
  fanned-out counterpart.
* ``multi_start="fanout"``: the pre-batched path — S independent trials
  fanned across the worker pool (``n_jobs``), one chain each.  Kept as
  the benchmark baseline and the cross-check oracle.

Chains are bit-identical between the strategies (and for any worker
count, pool mode, thread count, or kernel backend), so
``select_best_start`` picks the same winner with the same
log-likelihoods either way; ``n_starts=1`` remains bit-identical to the
historical single-chain fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import EstimationError, ValidationError
from repro.graphs.graph import Graph
from repro.graphs.operations import pad_to_power_of_two
from repro.kronecker.initiator import Initiator, as_initiator
from repro.kronecker.likelihood import (
    _PARAM_CEIL,
    _PARAM_FLOOR,
    MultiChainSampler,
    PermutationSampler,
    ProfileLikelihood,
    _empty_graph_gradient,
    _empty_graph_term,
    degree_matched_initial_sigma,
)
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "KronFitEstimator",
    "KronFitResult",
    "perturbed_initial_sigma",
    "select_best_start",
]

_logger = get_logger(__name__)

_PARAM_LOW = 0.001
_PARAM_HIGH = 0.999

# Entropy word of the deterministic per-start σ perturbation streams.
# Fixed forever: changing it changes every multi-start trajectory.
_START_SIGMA_KEY = 0x5163_F17  # "SIG FIT"


@dataclass(frozen=True)
class KronFitResult:
    """Outcome of a KronFit run.

    Attributes
    ----------
    initiator:
        The fitted initiator, canonicalized to a >= c.
    k:
        Kronecker order used (graph padded to 2^k nodes).
    log_likelihoods:
        Approximate log-likelihood after each gradient iteration.
    acceptance_rate:
        Fraction of accepted Metropolis proposals over the whole run.
    trajectory:
        Parameter triple after each gradient iteration.
    n_starts:
        How many independent chains competed for this result.
    start:
        Index of the winning start (0 = the degree-matched σ).
    start_log_likelihoods:
        Final log-likelihood of every start, in start order (empty for
        single-start fits).
    """

    initiator: Initiator
    k: int
    log_likelihoods: tuple[float, ...]
    acceptance_rate: float
    trajectory: tuple[tuple[float, float, float], ...] = field(repr=False)
    n_starts: int = 1
    start: int = 0
    start_log_likelihoods: tuple[float, ...] = ()


class KronFitEstimator:
    """Approximate-MLE estimation of a 2×2 symmetric SKG initiator.

    Parameters
    ----------
    n_iterations:
        Gradient-ascent iterations.
    warmup_swaps:
        Metropolis proposals before the first permutation sample of each
        iteration (re-mixing after each Θ update).
    n_permutation_samples:
        Permutations averaged per gradient estimate.
    sample_spacing:
        Proposals between consecutive permutation samples.
    learning_rate:
        Initial step size for the sup-norm-normalised gradient step; decays
        harmonically.  Normalising by the gradient's sup-norm makes the
        step size meaningful across graph scales (raw SKG gradients grow
        with |E|·k).
    initial:
        Starting initiator (defaults to the paper's generic seed point).
    backend:
        Execution engine of the Metropolis permutation chain (``auto`` |
        ``numpy`` | ``cext``; default: the
        ``REPRO_KERNEL_BACKEND`` knob, else ``auto``).  Results are
        bit-identical for every engine — the knob only selects speed.
    n_starts:
        Independent Metropolis chains per fit; the best final
        log-likelihood wins (deterministic tie-break by start index).
        ``1`` (the default) is bit-identical to the historical
        single-chain fit.
    n_jobs:
        Worker processes used by the trial engine.  Under
        ``multi_start="fanout"`` the starts fan across them; under
        ``multi_start="batched"`` the single batched task runs on one
        worker (``n_jobs > 1`` still moves it off-process).  ``None``
        runs in-process — deliberately *not* the ``REPRO_N_JOBS``
        default, so fits nested inside scenario trials never fork a pool
        inside a pool worker.  Results are bit-identical for any value.
    multi_start:
        Execution strategy for ``n_starts > 1``: ``"batched"`` (default,
        all chains in one native call per batch) or ``"fanout"`` (one
        trial per start).  Identical results either way.
    kernel_threads:
        Threads the chain kernel shards chains across (default: the
        ``REPRO_KERNEL_THREADS`` knob, else 1; 0 means all usable cores;
        capped at the start count).  Purely a throughput knob — results are
        bit-identical for any value.

    Examples
    --------
    >>> from repro.kronecker import Initiator
    >>> graph = Initiator(0.9, 0.5, 0.2).sample(8, seed=1)
    >>> fit = KronFitEstimator(n_iterations=10, seed=0).fit(graph)
    >>> 0 <= fit.initiator.c <= fit.initiator.a <= 1
    True
    """

    def __init__(
        self,
        *,
        n_iterations: int = 40,
        warmup_swaps: int = 2000,
        n_permutation_samples: int = 4,
        sample_spacing: int = 200,
        learning_rate: float = 0.08,
        initial: Initiator | tuple[float, float, float] = (0.9, 0.6, 0.2),
        seed: SeedLike = None,
        backend: str | None = None,
        n_starts: int = 1,
        n_jobs: int | None = None,
        multi_start: str = "batched",
        kernel_threads: int | None = None,
    ) -> None:
        self.n_iterations = check_integer(n_iterations, "n_iterations", minimum=1)
        self.warmup_swaps = check_integer(warmup_swaps, "warmup_swaps", minimum=0)
        self.n_permutation_samples = check_integer(
            n_permutation_samples, "n_permutation_samples", minimum=1
        )
        self.sample_spacing = check_integer(sample_spacing, "sample_spacing", minimum=1)
        self.learning_rate = check_positive(learning_rate, "learning_rate")
        self.initial = as_initiator(initial)
        self.seed = seed
        self.backend = backend
        self.n_starts = check_integer(n_starts, "n_starts", minimum=1)
        self.n_jobs = (
            None if n_jobs is None else check_integer(n_jobs, "n_jobs", minimum=1)
        )
        if multi_start not in ("batched", "fanout"):
            raise ValidationError(
                f"multi_start must be 'batched' or 'fanout', got {multi_start!r}"
            )
        self.multi_start = multi_start
        self.kernel_threads = (
            None
            if kernel_threads is None
            else check_integer(kernel_threads, "kernel_threads", minimum=0)
        )

    def fit(self, graph: Graph) -> KronFitResult:
        """Fit the initiator to ``graph`` (padded to 2^k nodes internally)."""
        if graph.n_edges == 0:
            raise EstimationError("cannot fit KronFit to a graph with no edges")
        if self.n_starts == 1:
            rng = as_generator(self.seed)
            padded, k = pad_to_power_of_two(graph)
            return self._fit_chain(padded, k, rng, sigma=None)
        if self.multi_start == "fanout":
            return self._fit_multi_start_fanout(graph)
        return self._fit_multi_start_batched(graph)

    def _fit_multi_start_batched(self, graph: Graph) -> KronFitResult:
        """All ``n_starts`` chains in one batched task; best LL wins.

        Per-start seeds are spawned from the estimator seed with the
        exact derivation the trial engine applies to fanned-out specs
        (Generator → one ``integers`` draw, then ``SeedSequence.spawn``
        by start index), so chain ``s`` consumes the same stream here as
        trial ``s`` does under ``multi_start="fanout"`` — the winner and
        every log-likelihood are bit-identical between the strategies.
        """
        from repro.runtime import TrialSpec, run_trials

        padded, k = pad_to_power_of_two(graph)
        seed = self.seed
        if isinstance(seed, np.random.Generator):
            seed = int(seed.integers(0, 2**63 - 1))
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        children = tuple(root.spawn(self.n_starts))
        spec = TrialSpec(
            fn=_kronfit_batched_trial,
            params={
                "graph": padded,
                "k": k,
                "seeds": children,
                "n_iterations": self.n_iterations,
                "warmup_swaps": self.warmup_swaps,
                "n_permutation_samples": self.n_permutation_samples,
                "sample_spacing": self.sample_spacing,
                "learning_rate": self.learning_rate,
                "initial": (self.initial.a, self.initial.b, self.initial.c),
                "backend": self.backend,
                "threads": self.kernel_threads,
            },
            index=0,
        )
        report = run_trials(
            [spec],
            seed=0,
            n_jobs=self.n_jobs if self.n_jobs is not None else 1,
            label=f"kronfit:{self.n_starts}-starts-batched",
        )
        results = report.results[0]
        winner = select_best_start(results)
        result = results[winner]
        _logger.debug(
            "kronfit multi-start (batched): start %d of %d wins with loglik=%.2f",
            winner,
            self.n_starts,
            result.log_likelihoods[-1],
        )
        return replace(
            result,
            n_starts=self.n_starts,
            start=winner,
            start_log_likelihoods=tuple(
                r.log_likelihoods[-1] for r in results
            ),
        )

    def _fit_multi_start_fanout(self, graph: Graph) -> KronFitResult:
        """Fan ``n_starts`` chains across the trial engine; best LL wins."""
        from repro.runtime import TrialSpec, run_trials

        padded, k = pad_to_power_of_two(graph)
        chain_params = {
            "n_iterations": self.n_iterations,
            "warmup_swaps": self.warmup_swaps,
            "n_permutation_samples": self.n_permutation_samples,
            "sample_spacing": self.sample_spacing,
            "learning_rate": self.learning_rate,
            "initial": (self.initial.a, self.initial.b, self.initial.c),
            "backend": self.backend,
        }
        specs = [
            TrialSpec(
                fn=_kronfit_start_trial,
                params={"graph": padded, "k": k, "start": start, **chain_params},
                index=start,
            )
            for start in range(self.n_starts)
        ]
        report = run_trials(
            specs,
            seed=self.seed,
            n_jobs=self.n_jobs if self.n_jobs is not None else 1,
            label=f"kronfit:{self.n_starts}-starts",
        )
        winner = select_best_start(report.results)
        result = report.results[winner]
        _logger.debug(
            "kronfit multi-start: start %d of %d wins with loglik=%.2f",
            winner,
            self.n_starts,
            result.log_likelihoods[-1],
        )
        return replace(
            result,
            n_starts=self.n_starts,
            start=winner,
            start_log_likelihoods=tuple(
                r.log_likelihoods[-1] for r in report.results
            ),
        )

    def _fit_chain(
        self,
        padded: Graph,
        k: int,
        rng: np.random.Generator,
        sigma: np.ndarray | None,
    ) -> KronFitResult:
        """One gradient-ascent run over one Metropolis chain.

        ``sigma=None`` starts from the degree-matched correspondence —
        exactly the historical single-start fit.
        """
        theta = _clip(self.initial)
        sampler = PermutationSampler(
            padded, k, theta, sigma=sigma, backend=self.backend
        )
        log_likelihoods: list[float] = []
        trajectory: list[tuple[float, float, float]] = []
        for iteration in range(self.n_iterations):
            sampler.set_theta(theta)
            sampler.run(self.warmup_swaps, rng)
            gradient = np.zeros(3)
            value = 0.0
            for _ in range(self.n_permutation_samples):
                sampler.run(self.sample_spacing, rng)
                likelihood = ProfileLikelihood(sampler.histogram(), k)
                gradient += likelihood.gradient(theta)
                value += likelihood.log_likelihood(theta)
            gradient /= self.n_permutation_samples
            value /= self.n_permutation_samples
            log_likelihoods.append(value)
            step_scale = self.learning_rate / (1.0 + iteration / 10.0)
            sup_norm = float(np.abs(gradient).max())
            if sup_norm > 0:
                step = step_scale * gradient / sup_norm
                theta = _clip(
                    Initiator(
                        float(np.clip(theta.a + step[0], _PARAM_LOW, _PARAM_HIGH)),
                        float(np.clip(theta.b + step[1], _PARAM_LOW, _PARAM_HIGH)),
                        float(np.clip(theta.c + step[2], _PARAM_LOW, _PARAM_HIGH)),
                    )
                )
            trajectory.append((theta.a, theta.b, theta.c))
            _logger.debug(
                "kronfit iter %d: loglik=%.2f theta=(%.4f, %.4f, %.4f)",
                iteration,
                value,
                theta.a,
                theta.b,
                theta.c,
            )
        acceptance = sampler.accepted / max(sampler.proposed, 1)
        return KronFitResult(
            initiator=theta.canonical(),
            k=k,
            log_likelihoods=tuple(log_likelihoods),
            acceptance_rate=float(acceptance),
            trajectory=tuple(trajectory),
        )


def perturbed_initial_sigma(graph: Graph, k: int, start: int) -> np.ndarray:
    """Initial correspondence of multi-start chain ``start``.

    Start 0 is the degree-matched σ every single-start fit uses; start
    ``s > 0`` reshuffles the assignments of a quarter of the nodes with a
    dedicated deterministic stream keyed by ``s`` alone — independent of
    worker count, pool mode, and the chain's own RNG — so every engine
    and schedule sees the same S starting points.
    """
    sigma = degree_matched_initial_sigma(graph, k)
    start = check_integer(start, "start", minimum=0)
    if start == 0 or graph.n_nodes < 2:
        return sigma
    rng = np.random.default_rng(np.random.SeedSequence([_START_SIGMA_KEY, start]))
    n = graph.n_nodes
    shuffled = rng.choice(n, size=max(2, n // 4), replace=False)
    sigma[shuffled] = sigma[shuffled[rng.permutation(shuffled.size)]]
    return sigma


def select_best_start(results: list[KronFitResult]) -> int:
    """Index of the winning start: best final log-likelihood.

    Strict improvement is required to displace an earlier start, so ties
    (including NaN-free exact equality from converged duplicate chains)
    deterministically resolve to the lowest start index.
    """
    if not results:
        raise EstimationError("multi-start selection needs at least one result")
    best = 0
    best_value = results[0].log_likelihoods[-1]
    for index, result in enumerate(results[1:], start=1):
        value = result.log_likelihoods[-1]
        if value > best_value:
            best = index
            best_value = value
    return best


def _kronfit_start_trial(
    rng: np.random.Generator,
    *,
    graph: Graph,
    k: int,
    start: int,
    n_iterations: int,
    warmup_swaps: int,
    n_permutation_samples: int,
    sample_spacing: int,
    learning_rate: float,
    initial: tuple[float, float, float],
    backend: str | None,
) -> KronFitResult:
    """One multi-start chain (module-level so the engine can ship it).

    ``graph`` is already padded to ``2^k`` nodes; ``rng`` is the
    engine-derived per-start stream, and the starting σ depends only on
    ``start``.
    """
    estimator = KronFitEstimator(
        n_iterations=n_iterations,
        warmup_swaps=warmup_swaps,
        n_permutation_samples=n_permutation_samples,
        sample_spacing=sample_spacing,
        learning_rate=learning_rate,
        initial=initial,
        backend=backend,
    )
    sigma = perturbed_initial_sigma(graph, k, start)
    return estimator._fit_chain(graph, k, rng, sigma=sigma)


def _kronfit_batched_trial(
    rng: np.random.Generator,
    *,
    graph: Graph,
    k: int,
    seeds: tuple,
    n_iterations: int,
    warmup_swaps: int,
    n_permutation_samples: int,
    sample_spacing: int,
    learning_rate: float,
    initial: tuple[float, float, float],
    backend: str | None,
    threads: int | None,
) -> list[KronFitResult]:
    """All multi-start chains as one trial (module-level so the engine
    can ship it to a pool worker).

    The engine-derived ``rng`` is ignored: each chain runs on its own
    pre-spawned seed from ``seeds`` so trajectories match the fanned-out
    per-start trials bit for bit.
    """
    del rng
    return _fit_chains_batched(
        graph,
        k,
        seeds,
        n_iterations=n_iterations,
        warmup_swaps=warmup_swaps,
        n_permutation_samples=n_permutation_samples,
        sample_spacing=sample_spacing,
        learning_rate=learning_rate,
        initial=initial,
        backend=backend,
        threads=threads,
    )


def _fit_chains_batched(
    graph: Graph,
    k: int,
    seeds,
    *,
    n_iterations: int,
    warmup_swaps: int,
    n_permutation_samples: int,
    sample_spacing: int,
    learning_rate: float,
    initial: tuple[float, float, float],
    backend: str | None,
    threads: int | None,
) -> list[KronFitResult]:
    """Gradient-ascent over S Metropolis chains advancing in lockstep.

    Chain ``s`` is bit-identical to ``_fit_chain`` run solo with start
    ``s``'s σ and ``default_rng(seeds[s])``: the Metropolis kernel is
    exact by the multichain contracts, and the stacked likelihood math
    below uses only IEEE correctly-rounded elementwise operations plus
    per-row contiguous sums — shape-independent, so each row reproduces
    :class:`ProfileLikelihood`'s float sequence exactly.  The only
    position-sensitive pieces (the ``exp``/``log1p`` table builds and the
    scalar empty-graph terms) stay per-chain, computed once per gradient
    iteration (Θ is constant within an iteration, so caching them is
    exact — the solo path just rebuilds the identical tables per sample).
    """
    seeds = tuple(seeds)
    n_chains = len(seeds)
    rngs = [np.random.default_rng(child) for child in seeds]
    theta0 = _clip(as_initiator(initial))
    sigmas = [
        perturbed_initial_sigma(graph, k, start) for start in range(n_chains)
    ]
    sampler = MultiChainSampler(
        graph,
        k,
        [theta0] * n_chains,
        sigmas=sigmas,
        backend=backend,
        threads=threads,
    )
    thetas = [theta0] * n_chains
    log_likelihoods: list[list[float]] = [[] for _ in range(n_chains)]
    trajectories: list[list[tuple[float, float, float]]] = [
        [] for _ in range(n_chains)
    ]
    grid = np.arange(k + 1)
    z_grid = np.broadcast_to(grid[:, None], (k + 1, k + 1))
    o_grid = np.broadcast_to(grid[None, :], (k + 1, k + 1))
    x_grid = np.maximum(k - z_grid - o_grid, 0)
    for iteration in range(n_iterations):
        # Θ is fixed within an iteration: build each chain's tables once
        # and reuse them for the score row and all likelihood samples.
        tables = []
        for s in range(n_chains):
            sampler.set_theta(s, thetas[s])
            tables.append(sampler.chain(s)._tables)
        w_tab = np.stack([t.log_p - t.log_1mp for t in tables])
        inv_1mp = 1.0 / np.maximum(
            1.0 - np.stack([t.p for t in tables]), 1.0 - _PARAM_CEIL
        )
        abc = np.array(
            [
                [
                    min(max(theta.a, _PARAM_FLOOR), _PARAM_CEIL),
                    min(max(theta.b, _PARAM_FLOOR), _PARAM_CEIL),
                    min(max(theta.c, _PARAM_FLOOR), _PARAM_CEIL),
                ]
                for theta in thetas
            ]
        )
        empty_grad = np.stack(
            [
                _empty_graph_gradient(abc[s, 0], abc[s, 1], abc[s, 2], k)
                for s in range(n_chains)
            ]
        )
        empty_term = np.array(
            [_empty_graph_term(thetas[s], k) for s in range(n_chains)]
        )
        sampler.run(warmup_swaps, rngs)
        gradients = np.zeros((n_chains, 3))
        values = np.zeros(n_chains)
        for _ in range(n_permutation_samples):
            sampler.run(sample_spacing, rngs)
            hist = sampler.histograms().astype(np.float64)
            weight = hist * inv_1mp
            grad_a = (weight * z_grid).reshape(n_chains, -1).sum(axis=1)
            grad_b = (weight * x_grid).reshape(n_chains, -1).sum(axis=1)
            grad_c = (weight * o_grid).reshape(n_chains, -1).sum(axis=1)
            gradients += (
                np.stack(
                    [
                        grad_a / abc[:, 0],
                        grad_b / abc[:, 1],
                        grad_c / abc[:, 2],
                    ],
                    axis=1,
                )
                + empty_grad
            )
            values += (hist * w_tab).reshape(n_chains, -1).sum(axis=1) + empty_term
        gradients /= n_permutation_samples
        values /= n_permutation_samples
        step_scale = learning_rate / (1.0 + iteration / 10.0)
        for s in range(n_chains):
            log_likelihoods[s].append(float(values[s]))
            gradient = gradients[s]
            sup_norm = float(np.abs(gradient).max())
            if sup_norm > 0:
                step = step_scale * gradient / sup_norm
                theta = thetas[s]
                thetas[s] = _clip(
                    Initiator(
                        float(np.clip(theta.a + step[0], _PARAM_LOW, _PARAM_HIGH)),
                        float(np.clip(theta.b + step[1], _PARAM_LOW, _PARAM_HIGH)),
                        float(np.clip(theta.c + step[2], _PARAM_LOW, _PARAM_HIGH)),
                    )
                )
            trajectories[s].append((thetas[s].a, thetas[s].b, thetas[s].c))
    results = []
    for s in range(n_chains):
        chain = sampler.chain(s)
        acceptance = chain.accepted / max(chain.proposed, 1)
        results.append(
            KronFitResult(
                initiator=thetas[s].canonical(),
                k=k,
                log_likelihoods=tuple(log_likelihoods[s]),
                acceptance_rate=float(acceptance),
                trajectory=tuple(trajectories[s]),
            )
        )
    return results


def _clip(theta: Initiator) -> Initiator:
    return Initiator(
        float(np.clip(theta.a, _PARAM_LOW, _PARAM_HIGH)),
        float(np.clip(theta.b, _PARAM_LOW, _PARAM_HIGH)),
        float(np.clip(theta.c, _PARAM_LOW, _PARAM_HIGH)),
    )
