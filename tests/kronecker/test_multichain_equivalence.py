"""Equivalence matrix for the batched multi-chain Metropolis kernel.

PR 10's :class:`repro.kronecker.likelihood.MultiChainSampler` advances S
independent permutation chains — each with its own θ, σ, histogram, and
pre-drawn proposal stream — in **one** native call.  The contract is
per-chain bit-identity: every chain of a batched run must reproduce the
solo :class:`PermutationSampler` trajectory it replaces exactly (σ
checkpoints, profile histogram, acceptance and proposal counts), for
every backend × chain count × kernel batch size × θ assignment, on the
same graph families the solo matrix pins
(``test_chain_equivalence.py``).  On top of the matrix:

* thread invariance — ``kernel_threads`` shards data-independent chains,
  so results are bit-identical for any thread count, and no more
  threads than chains are ever asked for;
* fork safety — a child forked after a threaded kernel call still
  finishes, with the serial result;
* one kernel seam — both samplers get the compiled kernel through
  ``repro.kronecker.likelihood.chain_kernel``, the name tracers wrap;
* KronFit end-to-end — the batched multi-start strategy selects the
  same winner, with bit-identical per-start results, as the PR 5
  pool-fanned strategy it replaces.

Backends unavailable on the host (e.g. no C compiler) appear as explicit
skips, so a green run shows which columns of the matrix really ran.
"""

from __future__ import annotations

import functools
import multiprocessing
import queue

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graphs import Graph
from repro.graphs.generators import star_graph
from repro.kronecker import likelihood
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronfit import KronFitEstimator
from repro.kronecker.likelihood import (
    MultiChainSampler,
    PermutationSampler,
    edge_profiles,
    profile_histogram,
)
from repro.kronecker.sampling import sample_skg
from repro.native import chain as native_chain
from repro.native.registry import (
    KERNEL_THREADS_ENV,
    NATIVE_BACKENDS,
    resolve_kernel_threads,
)


def _backend_params() -> list:
    """One param per multichain engine; unavailable ones become skips."""
    params = [pytest.param("numpy")]
    for name in NATIVE_BACKENDS:
        if native_chain.CHAIN_KERNEL.available(name):
            params.append(pytest.param(name))
        else:
            reason = (
                f"{name} backend unavailable: "
                f"{native_chain.CHAIN_KERNEL.error(name)}"
            )
            params.append(pytest.param(name, marks=pytest.mark.skip(reason=reason)))
    return params


BACKENDS = _backend_params()
BATCH_SIZES = (None, 1, 17)  # whole-run, degenerate, ragged
CHAIN_COUNTS = (1, 3, 5)  # S=1 degenerate, exact θ cover, θ reuse

# The θ cycle chains are assigned from (chain s gets THETA_CYCLE[s % 3]),
# the same three cells the solo matrix pins.
THETA_CYCLE = (
    Initiator(0.9, 0.5, 0.2),  # skewed
    Initiator(0.99, 0.45, 0.25),  # paper
    Initiator(0.6, 0.6, 0.6),  # flat
)

FAMILIES = {
    "skg-k5": lambda: (sample_skg(Initiator(0.9, 0.5, 0.2), 5, seed=3), 5),
    "star-16": lambda: (star_graph(16), 4),
    "near-empty-k3": lambda: (Graph(8, [(0, 1)]), 3),
}

RUN_LENGTHS = (120, 80)  # two run() calls: a checkpointed trajectory
SEED = 20120330


@functools.lru_cache(maxsize=None)
def family_graph(name: str) -> tuple[Graph, int]:
    return FAMILIES[name]()


@functools.lru_cache(maxsize=None)
def solo_cell(family: str, chain_index: int):
    """The solo numpy trajectory chain ``chain_index`` must reproduce."""
    graph, k = family_graph(family)
    theta = THETA_CYCLE[chain_index % len(THETA_CYCLE)]
    sampler = PermutationSampler(graph, k, theta, backend="numpy")
    rng = np.random.default_rng(SEED + chain_index)
    trace = []
    for n_steps in RUN_LENGTHS:
        sampler.run(n_steps, rng)
        trace.append(sampler.sigma.copy())
    return {
        "trace": trace,
        "histogram": sampler.histogram(),
        "accepted": sampler.accepted,
        "proposed": sampler.proposed,
    }


def run_multichain(
    family: str, backend: str, batch_size, n_chains: int, threads: int = 1
):
    """One batched run; returns per-chain traces alongside the sampler."""
    graph, k = family_graph(family)
    thetas = [THETA_CYCLE[s % len(THETA_CYCLE)] for s in range(n_chains)]
    sampler = MultiChainSampler(graph, k, thetas, backend=backend, threads=threads)
    rngs = [np.random.default_rng(SEED + s) for s in range(n_chains)]
    traces = [[] for _ in range(n_chains)]
    for n_steps in RUN_LENGTHS:
        sampler.run(n_steps, rngs, batch_size=batch_size)
        for s in range(n_chains):
            traces[s].append(sampler.chain(s).sigma.copy())
    return sampler, traces


class TestMultiChainMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("n_chains", CHAIN_COUNTS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_chain_matches_its_solo_trajectory(
        self, family, n_chains, batch_size, backend
    ):
        sampler, traces = run_multichain(family, backend, batch_size, n_chains)
        for s in range(n_chains):
            expected = solo_cell(family, s)
            chain = sampler.chain(s)
            for step, (got, want) in enumerate(zip(traces[s], expected["trace"])):
                np.testing.assert_array_equal(
                    got,
                    want,
                    err_msg=f"chain {s} sigma diverges at checkpoint {step}",
                )
            np.testing.assert_array_equal(chain.histogram(), expected["histogram"])
            assert chain.accepted == expected["accepted"]
            assert chain.proposed == expected["proposed"] == sum(RUN_LENGTHS)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_histograms_stack_and_match_recomputes(self, backend):
        sampler, _ = run_multichain("skg-k5", backend, None, 3)
        graph, k = family_graph("skg-k5")
        stacked = sampler.histograms()
        assert stacked.shape == (3, k + 1, k + 1)
        for s in range(3):
            chain = sampler.chain(s)
            z, x, o = edge_profiles(graph, chain.sigma, k)
            np.testing.assert_array_equal(stacked[s], profile_histogram(z, x, o, k))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_thread_count_is_bit_invariant(self, backend):
        """Chains are data-independent: sharding them across any number
        of kernel threads cannot change a single bit."""
        serial, serial_traces = run_multichain("skg-k5", backend, None, 5, threads=1)
        threaded, threaded_traces = run_multichain(
            "skg-k5", backend, None, 5, threads=4
        )
        for s in range(5):
            for got, want in zip(threaded_traces[s], serial_traces[s]):
                np.testing.assert_array_equal(got, want)
            assert threaded.chain(s).accepted == serial.chain(s).accepted
        np.testing.assert_array_equal(threaded.histograms(), serial.histograms())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_set_theta_preserves_equivalence(self, backend):
        """Chains stay identical across per-chain set_theta (the batched
        KronFit inner loop re-points every chain at its new θ)."""
        graph, k = family_graph("skg-k5")
        sampler = MultiChainSampler(
            graph, k, [THETA_CYCLE[0], THETA_CYCLE[1]], backend=backend
        )
        solo = [
            PermutationSampler(graph, k, THETA_CYCLE[s], backend="numpy")
            for s in range(2)
        ]
        rngs = [np.random.default_rng(40 + s) for s in range(2)]
        solo_rngs = [np.random.default_rng(40 + s) for s in range(2)]
        for theta in (THETA_CYCLE[2], THETA_CYCLE[0]):
            sampler.run(60, rngs)
            for s in range(2):
                solo[s].run(60, solo_rngs[s])
                sampler.set_theta(s, theta)
                solo[s].set_theta(theta)
        for s in range(2):
            np.testing.assert_array_equal(sampler.chain(s).sigma, solo[s].sigma)
            np.testing.assert_array_equal(
                sampler.chain(s).histogram(), solo[s].histogram()
            )
            assert sampler.chain(s).accepted == solo[s].accepted


CEXT_AVAILABLE = native_chain.CHAIN_KERNEL.available("cext")
needs_cext = pytest.mark.skipif(
    not CEXT_AVAILABLE, reason="compiled chain kernel unavailable on this host"
)


def _final_state(sampler):
    """Every chain's σ, histogram and acceptance count, as plain lists."""
    return [
        (
            sampler.chain(s).sigma.tolist(),
            sampler.chain(s).histogram().tolist(),
            sampler.chain(s).accepted,
        )
        for s in range(sampler.n_chains)
    ]


def _threaded_run_in_child(results):
    sampler, _ = run_multichain("skg-k5", "cext", None, 4, threads=2)
    results.put((sampler.threads, _final_state(sampler)))


@needs_cext
class TestChainKernelSeam:
    def test_both_samplers_get_the_kernel_through_the_traced_name(
        self, monkeypatch
    ):
        """perfbench times the chain by wrapping this one module-level
        name; a sampler that bypassed it would read as zero kernel time."""
        widths = []
        original = likelihood.chain_kernel

        def traced(name):
            kernel = original(name)

            def wrapped(*args):
                widths.append(args[2])  # n_chains
                return kernel(*args)

            return wrapped

        monkeypatch.setattr(likelihood, "chain_kernel", traced)
        graph, k = family_graph("skg-k5")
        solo = PermutationSampler(graph, k, THETA_CYCLE[0], backend="cext")
        solo.run(20, np.random.default_rng(0))
        batched = MultiChainSampler(graph, k, THETA_CYCLE, backend="cext")
        batched.run(20, [np.random.default_rng(s) for s in range(3)])
        assert widths == [1, 3]


class TestForkSafety:
    @needs_cext
    def test_child_forked_after_a_threaded_call_finishes(self):
        """libgomp cannot run a thread team in a child forked after the
        parent ran one; the child must fall back to one thread and still
        produce the serial result."""
        threaded, _ = run_multichain("skg-k5", "cext", None, 2, threads=2)
        assert threaded.threads == 2
        serial, _ = run_multichain("skg-k5", "cext", None, 4, threads=1)
        results = multiprocessing.get_context("fork").Queue()
        child = multiprocessing.get_context("fork").Process(
            target=_threaded_run_in_child, args=(results,)
        )
        child.start()
        try:
            threads, state = results.get(timeout=60)
        except queue.Empty:
            pytest.fail("forked child hung in its first threaded kernel call")
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        assert threads == 2
        assert state == _final_state(serial)


class TestKernelThreadsKnob:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        assert resolve_kernel_threads() == 1
        assert resolve_kernel_threads(3) == 3
        monkeypatch.setenv(KERNEL_THREADS_ENV, "2")
        assert resolve_kernel_threads() == 2
        assert resolve_kernel_threads(5) == 5

    def test_zero_means_all_usable_cores(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        assert resolve_kernel_threads(0) >= 1

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValidationError):
            resolve_kernel_threads("two")
        with pytest.raises(ValidationError):
            resolve_kernel_threads(True)
        monkeypatch.setenv(KERNEL_THREADS_ENV, "soon")
        with pytest.raises(ValidationError, match=KERNEL_THREADS_ENV):
            resolve_kernel_threads()

    def test_threads_capped_at_the_chain_count(self, monkeypatch):
        graph, k = family_graph("skg-k5")
        thetas = THETA_CYCLE[:2]
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        assert MultiChainSampler(graph, k, thetas, threads=64).threads == 2
        assert MultiChainSampler(graph, k, thetas, threads=1).threads == 1
        monkeypatch.setenv(KERNEL_THREADS_ENV, "64")
        assert MultiChainSampler(graph, k, thetas).threads == 2


class TestMultiChainValidation:
    def test_empty_thetas_rejected(self):
        graph, k = family_graph("skg-k5")
        with pytest.raises(ValidationError):
            MultiChainSampler(graph, k, [])

    def test_sigma_count_mismatch_rejected(self):
        graph, k = family_graph("skg-k5")
        sigma = np.arange(graph.n_nodes)
        with pytest.raises(ValidationError):
            MultiChainSampler(graph, k, [THETA_CYCLE[0]] * 2, sigmas=[sigma])

    def test_rng_count_mismatch_rejected(self):
        graph, k = family_graph("skg-k5")
        sampler = MultiChainSampler(graph, k, [THETA_CYCLE[0]] * 2)
        with pytest.raises(ValidationError):
            sampler.run(10, [np.random.default_rng(0)])


class TestKronFitBatchedMultiStart:
    CONFIG = dict(
        n_iterations=3,
        warmup_swaps=60,
        n_permutation_samples=2,
        sample_spacing=25,
        n_starts=4,
        seed=11,
    )

    @functools.lru_cache(maxsize=None)
    def _graph(self):
        return sample_skg(Initiator(0.9, 0.5, 0.2), 6, seed=1)

    def test_strategy_knob_validated(self):
        with pytest.raises(ValidationError, match="multi_start"):
            KronFitEstimator(multi_start="sideways")
        with pytest.raises(ValidationError):
            KronFitEstimator(kernel_threads=-1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batched_matches_fanned_multi_start(self, backend):
        """The tentpole contract: one batched native call must select
        the same winner, with bit-identical per-start results, as the
        pool-fanned path it replaces."""
        graph = self._graph()
        fanned = KronFitEstimator(
            backend=backend, multi_start="fanout", **self.CONFIG
        ).fit(graph)
        batched = KronFitEstimator(
            backend=backend, multi_start="batched", **self.CONFIG
        ).fit(graph)
        assert batched.start == fanned.start
        assert batched.n_starts == fanned.n_starts == 4
        assert batched.start_log_likelihoods == fanned.start_log_likelihoods
        assert batched.initiator == fanned.initiator
        assert batched.log_likelihoods == fanned.log_likelihoods
        assert batched.trajectory == fanned.trajectory
        assert batched.acceptance_rate == fanned.acceptance_rate

    def test_kernel_threads_do_not_change_the_fit(self):
        graph = self._graph()
        serial = KronFitEstimator(multi_start="batched", **self.CONFIG).fit(graph)
        threaded = KronFitEstimator(
            multi_start="batched", kernel_threads=4, **self.CONFIG
        ).fit(graph)
        assert threaded.start == serial.start
        assert threaded.initiator == serial.initiator
        assert threaded.start_log_likelihoods == serial.start_log_likelihoods

    def test_generator_seed_consumption_matches(self):
        """Both strategies consume exactly one draw from a Generator
        seed, so downstream code sees the same stream position."""
        graph = self._graph()
        config = {**self.CONFIG}
        del config["seed"]
        results = {}
        for strategy in ("fanout", "batched"):
            rng = np.random.default_rng(77)
            result = KronFitEstimator(
                multi_start=strategy, seed=rng, **config
            ).fit(graph)
            results[strategy] = (result, rng.integers(0, 2**63 - 1))
        fanned, fanned_next = results["fanout"]
        batched, batched_next = results["batched"]
        assert batched.start == fanned.start
        assert batched.initiator == fanned.initiator
        assert batched_next == fanned_next
