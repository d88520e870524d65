"""Arithmetic the benchmark reports: percentiles, failure share, digests,
and the host-speed yardstick its timings are read against.

Kept free of the program's imports so its tests run in milliseconds.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

__all__ = [
    "percentile",
    "failed_frac",
    "canonical_bytes",
    "digest",
    "read_peak_rss_mb",
    "reference_work",
    "REFERENCE_SECONDS",
    "HostClock",
]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    Matches ``numpy.percentile``'s default method: the rank is
    ``(n - 1) * q / 100`` over the sorted values.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be within [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def failed_frac(attempted: int, failed: int) -> float:
    """Share of attempted ops that failed, were refused or were wrong."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def _canonical(value):
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(f"cannot digest a {type(value).__name__}")


def canonical_bytes(value) -> bytes:
    """Stable bytes for nested dicts / lists of numbers and strings.

    Floats enter as ``float.hex`` so any last-bit change alters the
    digest; bytes pass through unchanged (a server's wire body).
    """
    if isinstance(value, bytes):
        return value
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":")).encode()


def digest(value) -> str:
    """16-hex-digit SHA-256 prefix of :func:`canonical_bytes`."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()[:16]


def read_peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def reference_work() -> float:
    """A fixed task of the benchmark's own: the yardstick of host speed.

    Interpreter-bound scalar work and small-array numpy calls, the same
    mix the program's fits are made of.  Nothing in it depends on the
    program, so a change to the program cannot move it.
    """
    import numpy as np

    total = 0
    for i in range(40_000):
        total += i * i
    grid = np.linspace(0.1, 1.0, 64)
    acc = 0.0
    for i in range(500):
        acc += float(np.exp(grid * (i * 1e-3)).sum())
    return total + acc


# Seconds one reference_work() call takes on the reference machine (a
# 2-vCPU Xeon VM at 2.0 GHz, Python 3.11, numpy 2) when no other tenant
# contends for its core: the fastest of many calls.
REFERENCE_SECONDS = 0.0036


class HostClock:
    """Reads wall times against a yardstick of host speed.

    On a host shared with other tenants the speed of a core changes by
    tens of percent from one second to the next, for seconds to minutes
    at a time.  The clock runs :func:`reference_work` right before and
    right after each timed call.  ``REFERENCE_SECONDS`` over the mean of
    the two reference times is the call's *scale*: wall seconds times
    scale are the call's cost in seconds of the reference machine,
    uncontended, and read the same whether the host was fast or slow
    around the call.  A change to the program moves the call and not
    the yardstick.
    """

    def __init__(self) -> None:
        self.reference_seconds = 0.0

    def _reference(self) -> float:
        start = time.perf_counter()
        reference_work()
        seconds = time.perf_counter() - start
        self.reference_seconds += seconds
        return seconds

    def time(self, call) -> tuple[object, float, float]:
        """``(call(), its wall seconds, its scale)``."""
        before = self._reference()
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        after = self._reference()
        return result, wall, REFERENCE_SECONDS / ((before + after) / 2)

    def cost(self, call) -> tuple[object, float]:
        """``(call(), its cost in reference-machine seconds)``."""
        result, wall, scale = self.time(call)
        return result, wall * scale

