"""repro.native — shared native-kernel layer (compiled-C backends).

Hot loops in the reproduction run behind interchangeable execution
engines selected by one knob, ``REPRO_KERNEL_BACKEND``:

* the **counting kernel** (:mod:`repro.native.counting`) — the fused
  masked A² pass behind :func:`repro.stats.kernels.triangle_pass`;
* the **chain kernel** (:mod:`repro.native.chain`) — batched Metropolis
  proposals for KronFit's permutation sampler
  (:class:`repro.kronecker.likelihood.PermutationSampler`);
* the **multichain kernel** (same module) — S independent chains per
  native call for multi-start KronFit
  (:class:`repro.kronecker.likelihood.MultiChainSampler`), sharded
  across threads via the ``REPRO_KERNEL_THREADS`` knob;
* the **sampler kernel** (:mod:`repro.native.sampling`) — per-class pair
  selection for exact SKG generation
  (:func:`repro.kronecker.sampling.sample_skg`).

Each kernel is a C function compiled on first use via the system
compiler (the ``cext`` engine) beside a pure-Python reference engine
that lives with its caller, and is registered with the shared machinery
in :mod:`repro.native.registry`: lazy availability probes with memoized
failure reasons, compile-once shared-library caching, smoke tests at
probe time, and the common ``auto``/loud-failure resolution contract.  Every engine of a kernel is
bit-identical to its pure-Python reference; the knob only selects speed.
"""

from repro.native.chain import (
    CHAIN_BACKENDS,
    CHAIN_KERNEL,
    MULTICHAIN_BACKENDS,
    MULTICHAIN_KERNEL,
    available_chain_backends,
    available_multichain_backends,
    chain_backend_available,
    chain_backend_error,
    chain_block,
    chain_kernel,
    draw_proposal_batch,
    multichain_backend_available,
    multichain_backend_error,
    multichain_kernel,
    resolve_chain_backend,
    resolve_multichain_backend,
)
from repro.native.counting import (
    COUNTING_KERNEL,
    FUSED_BACKENDS,
    backend_available,
    backend_error,
    backend_kernel,
)
from repro.native.registry import (
    KERNEL_BACKEND_ENV,
    KERNEL_THREADS_ENV,
    NATIVE_BACKENDS,
    OPENMP_ENV,
    NativeKernel,
    available_backends,
    auto_backend,
    compile_shared_library,
    resolve_backend,
    resolve_kernel_threads,
)

__all__ = [
    "NATIVE_BACKENDS",
    "KERNEL_BACKEND_ENV",
    "KERNEL_THREADS_ENV",
    "OPENMP_ENV",
    "NativeKernel",
    "compile_shared_library",
    "resolve_backend",
    "auto_backend",
    "available_backends",
    "resolve_kernel_threads",
    "COUNTING_KERNEL",
    "FUSED_BACKENDS",
    "backend_available",
    "backend_error",
    "backend_kernel",
    "CHAIN_KERNEL",
    "CHAIN_BACKENDS",
    "chain_block",
    "chain_backend_available",
    "chain_backend_error",
    "chain_kernel",
    "draw_proposal_batch",
    "resolve_chain_backend",
    "available_chain_backends",
    "MULTICHAIN_KERNEL",
    "MULTICHAIN_BACKENDS",
    "multichain_backend_available",
    "multichain_backend_error",
    "multichain_kernel",
    "resolve_multichain_backend",
    "available_multichain_backends",
]
