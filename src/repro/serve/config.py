"""Serve-layer configuration: one frozen object, env-knob resolvers.

Every robustness behaviour of ``repro serve`` is a knob with the same
resolution order as the rest of the runtime (explicit argument, then a
``REPRO_SERVE_*`` environment variable, then a safe default), validated
eagerly with the same clear errors:

* ``REPRO_SERVE_QUEUE`` — admission capacity: how many work requests may
  be in flight at once before the server answers 429 + ``Retry-After``.
* ``REPRO_SERVE_TIMEOUT`` — per-request deadline in seconds; a request
  that exceeds it is answered 504 (the watchdog is the trial engine's).
* ``REPRO_SERVE_DRAIN`` — graceful-drain deadline in seconds: how long
  SIGTERM/SIGINT waits for in-flight requests before abandoning them.
* ``REPRO_SERVE_BREAKER`` — circuit-breaker threshold: consecutive
  pool-breakage events before the server trips (work answers 503 and
  ``/readyz`` probes until recovery).
* ``REPRO_SERVE_BUDGET_EPSILON`` / ``REPRO_SERVE_BUDGET_DELTA`` — the
  per-dataset (ε, δ) privacy budget every private request draws on.
* ``REPRO_SERVE_LEDGER_DIR`` — where per-dataset accountant ledgers are
  persisted (unset = in-memory only; spends do not survive restarts).
* ``REPRO_SERVE_MAX_SAMPLES`` — per-request cap on synthetic graphs a
  single sample request may ask for; a request above it is answered
  ``400`` with a structured message naming the limit.

The privacy defaults a request omits (``REPRO_EPSILON`` /
``REPRO_DELTA``) and the execution knobs (``REPRO_N_JOBS``,
``REPRO_CACHE_DIR``, ``REPRO_POOL_RESTARTS``,
``REPRO_SERVE_FAULT_INJECT``) are shared with the evaluation harness and
trial engine, so a serve process and a batch run read one configuration
surface.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.runtime.engine import resolve_n_jobs, resolve_pool_restarts
from repro.runtime.faults import ServeFaultPlan, resolve_serve_fault_plan
from repro.utils.validation import check_integer, check_nonnegative

__all__ = [
    "ServeConfig",
    "SERVE_QUEUE_ENV",
    "SERVE_TIMEOUT_ENV",
    "SERVE_DRAIN_ENV",
    "SERVE_BREAKER_ENV",
    "SERVE_BUDGET_EPSILON_ENV",
    "SERVE_BUDGET_DELTA_ENV",
    "SERVE_LEDGER_DIR_ENV",
    "SERVE_MAX_SAMPLES_ENV",
    "resolve_serve_queue",
    "resolve_serve_timeout",
    "resolve_serve_drain",
    "resolve_serve_breaker",
    "resolve_serve_budget_epsilon",
    "resolve_serve_budget_delta",
    "resolve_serve_max_samples",
]

SERVE_QUEUE_ENV = "REPRO_SERVE_QUEUE"
SERVE_TIMEOUT_ENV = "REPRO_SERVE_TIMEOUT"
SERVE_DRAIN_ENV = "REPRO_SERVE_DRAIN"
SERVE_BREAKER_ENV = "REPRO_SERVE_BREAKER"
SERVE_BUDGET_EPSILON_ENV = "REPRO_SERVE_BUDGET_EPSILON"
SERVE_BUDGET_DELTA_ENV = "REPRO_SERVE_BUDGET_DELTA"
SERVE_LEDGER_DIR_ENV = "REPRO_SERVE_LEDGER_DIR"
SERVE_MAX_SAMPLES_ENV = "REPRO_SERVE_MAX_SAMPLES"

DEFAULT_QUEUE = 8
DEFAULT_TIMEOUT = 30.0
DEFAULT_DRAIN = 10.0
DEFAULT_BREAKER = 3
DEFAULT_BUDGET_EPSILON = 1.0
DEFAULT_BUDGET_DELTA = 0.1

# Per-request cap on synthetic graphs: purely protective (a request
# asking for thousands would hold its admission slot for minutes).
# Tunable via REPRO_SERVE_MAX_SAMPLES; kept under its historical name
# for callers that import the constant.
DEFAULT_MAX_SAMPLES = 64
MAX_SAMPLES_PER_REQUEST = DEFAULT_MAX_SAMPLES


def _env_int(name: str, fallback: int, *, minimum: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return fallback
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from exc
    return check_integer(value, name, minimum=minimum)


def _env_float(name: str, fallback: float, *, positive: bool) -> float:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return fallback
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValidationError(
            f"environment variable {name} must be a number, got {raw!r}"
        ) from exc
    if positive and not value > 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    if not positive:
        check_nonnegative(value, name)
    return value


def resolve_serve_queue(queue: int | None = None) -> int:
    """Admission capacity: argument, then ``REPRO_SERVE_QUEUE``, then
    {default}.  At least 1 — a server that admits nothing serves
    nothing."""
    if queue is None:
        return _env_int(SERVE_QUEUE_ENV, DEFAULT_QUEUE, minimum=1)
    return check_integer(queue, "serve queue", minimum=1)


def _check_seconds(value: float, name: str) -> float:
    """A deadline must be positive and finite: ``inf`` would overflow the
    timers that enforce it."""
    if not (value > 0 and math.isfinite(value)):
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def resolve_serve_timeout(timeout: float | None = None) -> float:
    """Per-request deadline in seconds: argument, then
    ``REPRO_SERVE_TIMEOUT``, then {default}s."""
    if timeout is None:
        timeout = _env_float(SERVE_TIMEOUT_ENV, DEFAULT_TIMEOUT, positive=True)
        return _check_seconds(timeout, SERVE_TIMEOUT_ENV)
    return _check_seconds(float(timeout), "serve timeout")


def resolve_serve_drain(drain: float | None = None) -> float:
    """Graceful-drain deadline in seconds: argument, then
    ``REPRO_SERVE_DRAIN``, then {default}s."""
    if drain is None:
        drain = _env_float(SERVE_DRAIN_ENV, DEFAULT_DRAIN, positive=True)
        return _check_seconds(drain, SERVE_DRAIN_ENV)
    return _check_seconds(float(drain), "drain deadline")


def resolve_serve_breaker(threshold: int | None = None) -> int:
    """Circuit-breaker trip threshold (consecutive pool breakages):
    argument, then ``REPRO_SERVE_BREAKER``, then {default}."""
    if threshold is None:
        return _env_int(SERVE_BREAKER_ENV, DEFAULT_BREAKER, minimum=1)
    return check_integer(threshold, "breaker threshold", minimum=1)


def resolve_serve_budget_epsilon(epsilon: float | None = None) -> float:
    """Per-dataset ε budget: argument, then
    ``REPRO_SERVE_BUDGET_EPSILON``, then {default}."""
    if epsilon is None:
        return _env_float(
            SERVE_BUDGET_EPSILON_ENV, DEFAULT_BUDGET_EPSILON, positive=False
        )
    return check_nonnegative(float(epsilon), "budget epsilon")


def resolve_serve_budget_delta(delta: float | None = None) -> float:
    """Per-dataset δ budget: argument, then ``REPRO_SERVE_BUDGET_DELTA``,
    then {default}."""
    if delta is None:
        return _env_float(SERVE_BUDGET_DELTA_ENV, DEFAULT_BUDGET_DELTA, positive=False)
    return check_nonnegative(float(delta), "budget delta")


def resolve_serve_max_samples(max_samples: int | None = None) -> int:
    """Per-request synthetic-graph cap: argument, then
    ``REPRO_SERVE_MAX_SAMPLES``, then {default}.  At least 1 — a cap of
    zero would reject every sample request."""
    if max_samples is None:
        return _env_int(SERVE_MAX_SAMPLES_ENV, DEFAULT_MAX_SAMPLES, minimum=1)
    return check_integer(max_samples, "max samples per request", minimum=1)


resolve_serve_queue.__doc__ = resolve_serve_queue.__doc__.format(default=DEFAULT_QUEUE)
resolve_serve_timeout.__doc__ = resolve_serve_timeout.__doc__.format(
    default=DEFAULT_TIMEOUT
)
resolve_serve_drain.__doc__ = resolve_serve_drain.__doc__.format(default=DEFAULT_DRAIN)
resolve_serve_breaker.__doc__ = resolve_serve_breaker.__doc__.format(
    default=DEFAULT_BREAKER
)
resolve_serve_budget_epsilon.__doc__ = resolve_serve_budget_epsilon.__doc__.format(
    default=DEFAULT_BUDGET_EPSILON
)
resolve_serve_budget_delta.__doc__ = resolve_serve_budget_delta.__doc__.format(
    default=DEFAULT_BUDGET_DELTA
)
resolve_serve_max_samples.__doc__ = resolve_serve_max_samples.__doc__.format(
    default=DEFAULT_MAX_SAMPLES
)


@dataclass(frozen=True)
class ServeConfig:
    """Resolved, validated configuration of one serve process."""

    host: str = "127.0.0.1"
    port: int = 8377
    queue_limit: int = DEFAULT_QUEUE
    timeout: float = DEFAULT_TIMEOUT
    drain_deadline: float = DEFAULT_DRAIN
    breaker_threshold: int = DEFAULT_BREAKER
    budget_epsilon: float = DEFAULT_BUDGET_EPSILON
    budget_delta: float = DEFAULT_BUDGET_DELTA
    default_epsilon: float = 0.2
    default_delta: float = 0.01
    n_jobs: int = 1
    pool_restarts: int = 2
    cache_dir: str | None = None
    ledger_dir: str | None = None
    max_samples: int = DEFAULT_MAX_SAMPLES
    faults: ServeFaultPlan = field(default_factory=ServeFaultPlan)

    @classmethod
    def resolve(
        cls,
        *,
        host: str | None = None,
        port: int | None = None,
        queue: int | None = None,
        timeout: float | None = None,
        drain: float | None = None,
        breaker: int | None = None,
        budget_epsilon: float | None = None,
        budget_delta: float | None = None,
        n_jobs: int | None = None,
        pool_restarts: int | None = None,
        cache_dir: str | None = None,
        ledger_dir: str | None = None,
        max_samples: int | None = None,
        faults: "str | ServeFaultPlan | None" = None,
    ) -> "ServeConfig":
        """Build a config with the standard knob-resolution order.

        Every ``None`` falls through to its ``REPRO_SERVE_*`` (or shared
        ``REPRO_*``) environment variable, then the default.  Validation
        happens here, eagerly — a serve process must refuse to boot with
        a bad knob, not fail on its first request.
        """
        return cls(
            host=host if host is not None else "127.0.0.1",
            port=check_integer(port if port is not None else 8377, "port", minimum=0),
            queue_limit=resolve_serve_queue(queue),
            timeout=resolve_serve_timeout(timeout),
            drain_deadline=resolve_serve_drain(drain),
            breaker_threshold=resolve_serve_breaker(breaker),
            budget_epsilon=resolve_serve_budget_epsilon(budget_epsilon),
            budget_delta=resolve_serve_budget_delta(budget_delta),
            default_epsilon=_env_float("REPRO_EPSILON", 0.2, positive=True),
            default_delta=_env_float("REPRO_DELTA", 0.01, positive=True),
            n_jobs=resolve_n_jobs(n_jobs),
            pool_restarts=resolve_pool_restarts(pool_restarts),
            cache_dir=(
                cache_dir
                if cache_dir is not None
                else os.environ.get("REPRO_CACHE_DIR") or None
            ),
            ledger_dir=(
                ledger_dir
                if ledger_dir is not None
                else os.environ.get(SERVE_LEDGER_DIR_ENV) or None
            ),
            max_samples=resolve_serve_max_samples(max_samples),
            faults=resolve_serve_fault_plan(faults),
        )
