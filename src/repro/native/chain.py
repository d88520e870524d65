"""The fused Metropolis-chain kernel for KronFit permutation sampling.

One KronFit fit runs on the order of 10⁵ Metropolis proposals over node
correspondences σ (see :mod:`repro.kronecker.likelihood`).  Executed as
individual Python steps, each proposal costs ~10 tiny numpy operations;
this module executes whole proposal *batches* inside compiled code, with
three contracts that make every execution engine bit-identical:

**The draw contract** (:func:`draw_proposal_batch`).  All randomness is
pre-drawn in numpy-land, once per :meth:`PermutationSampler.run` call:

1. ``i ← rng.integers(0, n, size)`` — one draw per proposal;
2. ``j ← rng.integers(0, n, size)``, then, while any ``i == j`` collision
   remains, redraw exactly the colliding ``j`` entries (in index order).
   Resampling only ``j`` keeps the proposal uniform over *distinct*
   ordered pairs, and means every proposal is a real swap — ``proposed``
   and ``acceptance_rate`` count actual proposals;
3. ``log u ← log(rng.random(size))`` — the acceptance thresholds, drawn
   after the collision loop settles.

Kernels only ever *consume* these streams, so stream consumption cannot
depend on the engine or on how a run is chunked into kernel batches.

**The score contract.**  A swap of σ(i) and σ(j) changes the edge term by
``Σ_cells Δcount[cell] · score[cell]`` where ``score = log P − log(1−P)``
per profile cell and ``Δcount`` is the *integer* profile-histogram change
— computed exactly (increments), hence order-independent.  The float
accumulation visits the *touched* cells in ascending index order,
skipping zero counts; the numpy reference performs the identical scan
(``np.unique`` yields ascending touched cells), so the sum sequence —
and therefore every accept/reject decision — is bit-identical across
engines.  (The cext build passes ``-ffp-contract=off`` so no FMA
contraction can perturb the rounding.)

**The delta-scan contract.**  Every ``counts[]`` update records its cell
in a touched-cell event list (at most ``2·(deg i + deg j)`` events per
proposal); the per-proposal scan, histogram fold, and scratch reset all
walk that list instead of the full ``(k+1)²`` table.  A proposal on a
sparse graph therefore costs O(deg) rather than O(deg + k²) — the two
full-table rescans PR 4 paid per swap are gone.  Because any cell with a
nonzero count necessarily appears in the event list, sorting the events
and skipping duplicates reproduces the full ascending scan's float
accumulation sequence exactly: the optimization cannot perturb a single
trajectory.  ``stats[0]`` accumulates the number of score-table touches
(nonzero cells accumulated), which is how tests prove the O(k²) rescan
stays gone.

**The histogram contract.**  ``Δcount`` of an accepted swap is folded
into the persistent profile histogram, so the histogram is maintained
incrementally on touched edges only — no O(E) ``edge_profiles`` recompute
per permutation sample.

**One kernel, one chain or S chains.**  The compiled kernel
(``repro_multichain_block``, registered as :data:`CHAIN_KERNEL`) advances
S *independent* chains — each with its own σ, score table, histogram,
and pre-drawn draw-contract streams — in one native call, parallelized
*across chains* with OpenMP (optional, and inert when unavailable).
:class:`~repro.kronecker.likelihood.PermutationSampler` calls it one
chain wide on one thread; :class:`~repro.kronecker.likelihood.MultiChainSampler`
calls it S chains wide.  Within a chain the proposal loop is the
:func:`chain_block` contract with one integer-exact rewrite: the profile
cell is derived via the popcount identity
``popcount(id ^ w) = popcount(id) + popcount(w) − 2·popcount(id & w)``,
so each neighbor costs three popcounts instead of four and the row index
``z = (k − popcount(id)) − popcount(w) + o`` hoists the two
``k − popcount(id)`` terms out of the neighbor loops.  All quantities are
integers, so every touched cell — and therefore every float accumulation
sequence and accept/reject decision — is *identical* to
:func:`chain_block`'s: chain ``c`` of a batched call is bit-identical to
its solo trajectory, for any chain count, batch size, or thread count
(threads only shard whole chains).  The registration offers ``-fopenmp``
and ``-mpopcnt`` as optional compile flags with graceful fallback.

**Fork safety.**  GNU libgomp is not fork-safe: a child forked from a
process that has run a parallel region on more than one thread hangs in
its own first such region.  :func:`fork_safe_threads` records when a
threaded call starts, and a process forked after one runs the kernel on
one thread — exact, because threads never change results.  The
probe-time self-check runs on one thread, so probing alone never makes a
process unsafe to fork.

:func:`chain_block` is the loop nest in plain Python, kept as the
trusted reference the probe-time self-check compares against.  The numpy
reference engine lives with its caller,
:class:`repro.kronecker.likelihood.PermutationSampler`.  The equivalence
matrices (``tests/kronecker/test_chain_equivalence.py`` and
``tests/kronecker/test_multichain_equivalence.py``) pin every backend ×
batch size × chain count × graph family × θ cell to identical σ
trajectories, histograms, and acceptance counts.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable

import numpy as np

from repro.errors import ValidationError
from repro.native.registry import NativeKernel

__all__ = [
    "CHAIN_KERNEL",
    "chain_block",
    "chain_kernel",
    "draw_proposal_batch",
    "fork_safe_threads",
]


def draw_proposal_batch(
    rng: np.random.Generator, n_nodes: int, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-draw ``size`` Metropolis proposals: ``(i, j, log u)`` streams.

    This function *is* the draw contract (see the module docstring): every
    chain engine consumes these arrays verbatim, so trajectories cannot
    depend on the engine or the kernel batch size.  Requires ``n_nodes >= 2``
    (with one node no distinct pair exists).
    """
    if n_nodes < 2:
        raise ValidationError(
            f"proposal draws need at least 2 nodes, got {n_nodes}"
        )
    i_nodes = rng.integers(0, n_nodes, size=size, dtype=np.int64)
    j_nodes = rng.integers(0, n_nodes, size=size, dtype=np.int64)
    while True:
        collisions = np.flatnonzero(i_nodes == j_nodes)
        if collisions.size == 0:
            break
        j_nodes[collisions] = rng.integers(
            0, n_nodes, size=collisions.size, dtype=np.int64
        )
    # rng.random() may return exactly 0.0 (probability 2^-53): log u is
    # -inf, which accepts — matching u < exp(delta) for any finite delta.
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(size=size))
    return i_nodes, j_nodes, log_u


def chain_block(
    indptr,
    indices,
    sigma,
    k,
    score,
    hist,
    counts,
    touched,
    stats,
    i_nodes,
    j_nodes,
    log_u,
    start,
    stop,
):
    """Execute proposals ``[start, stop)`` of a pre-drawn stream in place.

    The plain-Python oracle of one chain of the compiled kernel.

    Parameters are the int32 CSR structure of the symmetric adjacency,
    the int64 correspondence ``sigma`` (mutated on accepted swaps), the
    Kronecker order ``k``, the flat ``(k+1)²`` float64 score table
    ``log P − log(1−P)``, the flat int64 profile histogram (maintained
    incrementally), an all-zero int64 scratch of the same length (left
    all-zero), the touched-cell event scratch (int64, at least
    ``2·(deg i + deg j)`` long for any proposal — ``4·max_degree``
    suffices), the int64 ``stats`` accumulator (``stats[0]`` gains the
    number of score-table touches), and the three draw-contract streams.
    Returns the number of accepted swaps.
    """

    def popcount(v):
        # Branch-free SWAR popcount, exact for any non-negative int64
        # (Kronecker ids are < 2^k).
        v = v - ((v >> 1) & 0x5555555555555555)
        v = (v & 0x3333333333333333) + ((v >> 2) & 0x3333333333333333)
        v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0F
        v = v + (v >> 8)
        v = v + (v >> 16)
        v = v + (v >> 32)
        return v & 0x7F

    accepted = 0
    touches = 0
    for t in range(start, stop):
        i = i_nodes[t]
        j = j_nodes[t]
        id_i = sigma[i]
        id_j = sigma[j]
        # Net profile-count change of swapping sigma(i) and sigma(j): the
        # edges at i trade center id id_i for id_j, the edges at j trade
        # id_j for id_i; the i-j edge (if any) keeps its profile and is
        # excluded symmetrically.  Every counts[] update logs its cell in
        # the touched event list (the delta-scan contract).
        n_touched = 0
        for idx in range(indptr[i], indptr[i + 1]):
            w = indices[idx]
            if w == j:
                continue
            wid = sigma[w]
            x = popcount(id_i ^ wid)
            o = popcount(id_i & wid)
            cell = (k - x - o) * (k + 1) + o
            counts[cell] -= 1
            touched[n_touched] = cell
            n_touched += 1
            x = popcount(id_j ^ wid)
            o = popcount(id_j & wid)
            cell = (k - x - o) * (k + 1) + o
            counts[cell] += 1
            touched[n_touched] = cell
            n_touched += 1
        for idx in range(indptr[j], indptr[j + 1]):
            w = indices[idx]
            if w == i:
                continue
            wid = sigma[w]
            x = popcount(id_j ^ wid)
            o = popcount(id_j & wid)
            cell = (k - x - o) * (k + 1) + o
            counts[cell] -= 1
            touched[n_touched] = cell
            n_touched += 1
            x = popcount(id_i ^ wid)
            o = popcount(id_i & wid)
            cell = (k - x - o) * (k + 1) + o
            counts[cell] += 1
            touched[n_touched] = cell
            n_touched += 1
        # Insertion-sort the event list ascending: event counts are tiny
        # (2·(deg i + deg j)) and mostly short, where insertion sort beats
        # anything with setup cost — and identical ordering in the C
        # kernel keeps the accumulation sequence bit-reproducible.
        for a in range(1, n_touched):
            key = touched[a]
            b = a - 1
            while b >= 0 and touched[b] > key:
                touched[b + 1] = touched[b]
                b -= 1
            touched[b + 1] = key
        # Ascending touched-cell scan, skipping duplicates and zero
        # counts: the same accumulation sequence as a full ascending
        # 0..(k+1)²−1 scan, because untouched cells have zero counts.
        delta = 0.0
        previous = -1
        for a in range(n_touched):
            cell = touched[a]
            if cell == previous:
                continue
            previous = cell
            if counts[cell] != 0:
                delta += counts[cell] * score[cell]
                touches += 1
        if delta >= 0.0 or log_u[t] < delta:
            sigma[i] = id_j
            sigma[j] = id_i
            accepted += 1
            for a in range(n_touched):
                cell = touched[a]
                if counts[cell] != 0:
                    hist[cell] += counts[cell]
                    counts[cell] = 0
        else:
            for a in range(n_touched):
                counts[touched[a]] = 0
    stats[0] += touches
    return accepted


# The cext kernel: proposals [start, stop) of S pre-drawn streams,
# executed in place.  Stacked per-chain state is passed as flat
# C-contiguous arrays: chain c owns sigma_all[c*n_nodes:], the
# (k+1)^2-long slices of score_all / hist_all / counts_all at c*(k+1)^2,
# the touched_len-long event scratch at c*touched_len, and the
# draw-contract streams i_all/j_all/u_all at c*stream_len.
# accepted_all[c] is *set* to the accepted swaps of this call (the caller
# accumulates); stats_all[c] accumulates score-table touches exactly like
# chain_block's stats[0].  Returns the total accepted across chains.
#
# Within a chain this is the chain_block contract with the
# popcount-identity cell derivation (see the module docstring).  The only
# other deviation is the OpenMP pragma: inert without -fopenmp, and
# chains are data-independent, so n_threads never changes results.
_C_SOURCE = """\
#include <stdint.h>

int64_t repro_multichain_block(
    const int32_t *indptr,
    const int32_t *indices,
    int64_t n_chains,
    int64_t n_nodes,
    int64_t *sigma_all,
    int64_t k,
    const double *score_all,
    int64_t *hist_all,
    int64_t *counts_all,
    int64_t *touched_all,
    int64_t touched_len,
    int64_t *stats_all,
    const int64_t *i_all,
    const int64_t *j_all,
    const double *u_all,
    int64_t stream_len,
    int64_t start,
    int64_t stop,
    int64_t *accepted_all,
    int64_t n_threads)
{
    int64_t n_cells = (k + 1) * (k + 1);
    int nt = n_threads > 0 ? (int)n_threads : 1;
    (void)nt;
#pragma omp parallel for num_threads(nt) schedule(static)
    for (int64_t c = 0; c < n_chains; c++) {
        int64_t *sigma = sigma_all + c * n_nodes;
        const double *score = score_all + c * n_cells;
        int64_t *hist = hist_all + c * n_cells;
        int64_t *counts = counts_all + c * n_cells;
        int64_t *touched = touched_all + c * touched_len;
        const int64_t *i_nodes = i_all + c * stream_len;
        const int64_t *j_nodes = j_all + c * stream_len;
        const double *log_u = u_all + c * stream_len;
        int64_t accepted = 0;
        int64_t touches = 0;
        for (int64_t t = start; t < stop; t++) {
            int64_t i = i_nodes[t];
            int64_t j = j_nodes[t];
            int64_t id_i = sigma[i];
            int64_t id_j = sigma[j];
            int64_t o, wid, cell;
            int64_t zi = k - __builtin_popcountll((uint64_t)id_i);
            int64_t zj = k - __builtin_popcountll((uint64_t)id_j);
            int64_t n_touched = 0;
            for (int32_t idx = indptr[i]; idx < indptr[i + 1]; idx++) {
                int32_t w = indices[idx];
                if (w == j) {
                    continue;
                }
                wid = sigma[w];
                int64_t zw = zi - __builtin_popcountll((uint64_t)wid);
                o = __builtin_popcountll((uint64_t)(id_i & wid));
                cell = (zw + o) * (k + 1) + o;
                counts[cell] -= 1;
                touched[n_touched++] = cell;
                o = __builtin_popcountll((uint64_t)(id_j & wid));
                cell = (zw - zi + zj + o) * (k + 1) + o;
                counts[cell] += 1;
                touched[n_touched++] = cell;
            }
            for (int32_t idx = indptr[j]; idx < indptr[j + 1]; idx++) {
                int32_t w = indices[idx];
                if (w == i) {
                    continue;
                }
                wid = sigma[w];
                int64_t zw = zj - __builtin_popcountll((uint64_t)wid);
                o = __builtin_popcountll((uint64_t)(id_j & wid));
                cell = (zw + o) * (k + 1) + o;
                counts[cell] -= 1;
                touched[n_touched++] = cell;
                o = __builtin_popcountll((uint64_t)(id_i & wid));
                cell = (zw - zj + zi + o) * (k + 1) + o;
                counts[cell] += 1;
                touched[n_touched++] = cell;
            }
            for (int64_t a = 1; a < n_touched; a++) {
                int64_t key = touched[a];
                int64_t b = a - 1;
                while (b >= 0 && touched[b] > key) {
                    touched[b + 1] = touched[b];
                    b -= 1;
                }
                touched[b + 1] = key;
            }
            double delta = 0.0;
            int64_t previous = -1;
            for (int64_t a = 0; a < n_touched; a++) {
                cell = touched[a];
                if (cell == previous) {
                    continue;
                }
                previous = cell;
                if (counts[cell] != 0) {
                    delta += (double)counts[cell] * score[cell];
                    touches += 1;
                }
            }
            if (delta >= 0.0 || log_u[t] < delta) {
                sigma[i] = id_j;
                sigma[j] = id_i;
                accepted += 1;
                for (int64_t a = 0; a < n_touched; a++) {
                    cell = touched[a];
                    if (counts[cell] != 0) {
                        hist[cell] += counts[cell];
                        counts[cell] = 0;
                    }
                }
            } else {
                for (int64_t a = 0; a < n_touched; a++) {
                    counts[touched[a]] = 0;
                }
            }
        }
        accepted_all[c] = accepted;
        stats_all[c] += touches;
    }
    int64_t total = 0;
    for (int64_t c = 0; c < n_chains; c++) {
        total += accepted_all[c];
    }
    return total;
}
"""


def _smoke_test(kernel: Callable) -> None:
    """Run the kernel on three chains and compare against :func:`chain_block`.

    Three chains on the path graph 0–1–2–3 at k=2 with different σ, score
    tables, and acceptance thresholds.  Expected outputs come from running
    the trusted plain-Python :func:`chain_block` per chain, so the check
    is the kernel's core contract itself: each batched chain must match
    its solo trajectory exactly.  Chain 0 is also checked against
    hand-derived values: from the identity σ its batch accepts a
    below-threshold negative delta and two non-negative deltas, then
    rejects a negative delta above its threshold.  Catches a miscompiled
    or ABI-mismatched kernel at probe time.  Runs on one thread, so a
    probe never makes the process unsafe to fork.
    """
    indptr = np.array([0, 1, 3, 5, 6], dtype=np.int32)
    indices = np.array([1, 0, 2, 1, 3, 2], dtype=np.int32)
    base_score = np.array(
        [0.5, -0.25, 0.125, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=np.float64
    )
    sigma = np.stack(
        [
            np.arange(4, dtype=np.int64),
            np.array([1, 0, 3, 2], dtype=np.int64),
            np.array([3, 1, 2, 0], dtype=np.int64),
        ]
    )
    score = np.stack([base_score, -base_score, 0.5 * base_score])
    i_nodes = np.tile(np.array([1, 0, 0, 0], dtype=np.int64), (3, 1))
    j_nodes = np.tile(np.array([3, 2, 1, 1], dtype=np.int64), (3, 1))
    log_u = np.stack(
        [
            np.array([-2.0, -0.5, -0.5, -0.5], dtype=np.float64),
            np.array([-0.5, -0.5, -0.5, -0.5], dtype=np.float64),
            np.array([-0.01, -3.0, -0.01, -3.0], dtype=np.float64),
        ]
    )
    hist = np.zeros((3, 9), dtype=np.int64)
    counts = np.zeros((3, 9), dtype=np.int64)
    touched = np.zeros((3, 16), dtype=np.int64)
    stats = np.zeros(3, dtype=np.int64)
    accepted = np.zeros(3, dtype=np.int64)

    expected_sigma = sigma.copy()
    expected_hist = hist.copy()
    expected_stats = np.zeros(3, dtype=np.int64)
    expected_accepted = np.zeros(3, dtype=np.int64)
    for c in range(3):
        scratch = np.zeros(9, dtype=np.int64)
        events = np.zeros(16, dtype=np.int64)
        stat = np.zeros(1, dtype=np.int64)
        expected_accepted[c] = chain_block(
            indptr, indices, expected_sigma[c], 2, score[c],
            expected_hist[c], scratch, events, stat,
            i_nodes[c], j_nodes[c], log_u[c], 0, 4,
        )
        expected_stats[c] = stat[0]

    total = int(
        kernel(
            indptr, indices, 3, 4, sigma.ravel(), 2, score.ravel(),
            hist.ravel(), counts.ravel(), touched.ravel(), 16, stats,
            i_nodes.ravel(), j_nodes.ravel(), log_u.ravel(), 4, 0, 4,
            accepted, 1,
        )
    )
    if (
        total != int(expected_accepted.sum())
        or not np.array_equal(accepted, expected_accepted)
        or not np.array_equal(sigma, expected_sigma)
        or not np.array_equal(hist, expected_hist)
        or not np.array_equal(stats, expected_stats)
        or int(accepted[0]) != 3
        or sigma[0].tolist() != [3, 2, 0, 1]
        or hist[0].tolist() != [-1, 0, 0, 1, 0, 0, 0, 0, 0]
        or int(stats[0]) != 8
    ):
        raise RuntimeError(
            f"chain kernel self-check failed: total={total}, "
            f"accepted={accepted.tolist()}, sigma={sigma.tolist()}, "
            f"hist={hist.tolist()}, stats={stats.tolist()}"
        )
    if counts.any():
        raise RuntimeError("chain kernel self-check failed: counts not zeroed")


_INT32_ARG = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_INT64_ARG = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_FLOAT64_ARG = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")

CHAIN_KERNEL = NativeKernel(
    name="chain",
    reference="numpy",
    c_source=_C_SOURCE,
    c_symbol="repro_multichain_block",
    c_restype=ctypes.c_int64,
    c_argtypes=[
        _INT32_ARG,  # indptr
        _INT32_ARG,  # indices
        ctypes.c_int64,  # n_chains
        ctypes.c_int64,  # n_nodes
        _INT64_ARG,  # sigma_all (flat S x n_nodes)
        ctypes.c_int64,  # k
        _FLOAT64_ARG,  # score_all (flat S x (k+1)^2)
        _INT64_ARG,  # hist_all (flat S x (k+1)^2)
        _INT64_ARG,  # counts_all scratch (flat S x (k+1)^2)
        _INT64_ARG,  # touched_all scratch (flat S x touched_len)
        ctypes.c_int64,  # touched_len
        _INT64_ARG,  # stats_all (per-chain touch accumulators)
        _INT64_ARG,  # i_all (flat S x stream_len)
        _INT64_ARG,  # j_all
        _FLOAT64_ARG,  # u_all
        ctypes.c_int64,  # stream_len
        ctypes.c_int64,  # start
        ctypes.c_int64,  # stop
        _INT64_ARG,  # accepted_all (per-chain, set per call)
        ctypes.c_int64,  # n_threads
    ],
    smoke_test=_smoke_test,
    c_optional_flags=("-fopenmp", "-mpopcnt"),
)


def chain_kernel(name: str) -> Callable:
    """The batch kernel of an *available* compiled chain backend.

    The callable has the ``repro_multichain_block`` signature and
    contract documented beside the C source.
    """
    return CHAIN_KERNEL.kernel(name)


# Whether this process has started a chain-kernel call on more than one
# thread, and whether it was forked from a process that had (then libgomp
# would hang at its first threaded region).
_threaded = False
_forked_after_threads = False


def _after_fork_in_child() -> None:
    global _forked_after_threads
    _forked_after_threads = _threaded


os.register_at_fork(after_in_child=_after_fork_in_child)


def fork_safe_threads(threads: int) -> int:
    """The thread count a chain-kernel call may use in this process.

    ``threads`` itself, except in a process forked after a threaded call
    (its parent's or an earlier ancestor's), where it is 1.
    """
    global _threaded
    if _forked_after_threads:
        return 1
    if threads > 1:
        _threaded = True
    return threads
