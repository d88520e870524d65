"""repro.native — shared native-kernel layer (compiled-C backends).

Hot loops in the reproduction run behind interchangeable execution
engines selected by one knob, ``REPRO_KERNEL_BACKEND``:

* the **counting kernel** (:mod:`repro.native.counting`) — the fused
  masked A² pass behind :func:`repro.stats.kernels.triangle_pass`;
* the **chain kernel** (:mod:`repro.native.chain`) — batched Metropolis
  proposals of S independent chains per native call, for KronFit's
  permutation samplers: one chain wide for
  :class:`repro.kronecker.likelihood.PermutationSampler`, S chains wide
  (sharded across threads via the ``REPRO_KERNEL_THREADS`` knob) for
  multi-start KronFit's :class:`repro.kronecker.likelihood.MultiChainSampler`;
* the **sampler kernel** (:mod:`repro.native.sampling`) — per-class pair
  selection for exact SKG generation
  (:func:`repro.kronecker.sampling.sample_skg`).

Each kernel is a C function compiled on first use via the system
compiler (the ``cext`` engine) beside a pure-Python reference engine
that lives with its caller, and is one :class:`~repro.native.registry.NativeKernel`
of the shared machinery in :mod:`repro.native.registry`: lazy
availability probes with memoized failure reasons, compile-once
shared-library caching, smoke tests at probe time, and the common
``auto``/loud-failure resolution contract (:meth:`NativeKernel.resolve`).
Every engine of a kernel is bit-identical to its pure-Python reference;
the knob only selects speed.
"""

from repro.native.chain import (
    CHAIN_KERNEL,
    chain_block,
    chain_kernel,
    draw_proposal_batch,
    fork_safe_threads,
)
from repro.native.counting import COUNTING_KERNEL, FUSED_BACKENDS
from repro.native.registry import (
    KERNEL_BACKEND_CHOICES,
    KERNEL_BACKEND_ENV,
    KERNEL_THREADS_ENV,
    NATIVE_BACKENDS,
    OPENMP_ENV,
    NativeKernel,
    compile_shared_library,
    resolve_kernel_threads,
)
from repro.native.sampling import SAMPLER_KERNEL

__all__ = [
    "NATIVE_BACKENDS",
    "KERNEL_BACKEND_CHOICES",
    "KERNEL_BACKEND_ENV",
    "KERNEL_THREADS_ENV",
    "OPENMP_ENV",
    "NativeKernel",
    "compile_shared_library",
    "resolve_kernel_threads",
    "COUNTING_KERNEL",
    "FUSED_BACKENDS",
    "CHAIN_KERNEL",
    "chain_block",
    "chain_kernel",
    "draw_proposal_batch",
    "fork_safe_threads",
    "SAMPLER_KERNEL",
]
