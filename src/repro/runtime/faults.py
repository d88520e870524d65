"""Deterministic fault injection for the trial engine.

Fault tolerance is only trustworthy if its recovery paths run — not just
under unit mocks, but through the real engine: real worker processes
dying, real trials raising, real attempts timing out.  This module turns
the ``REPRO_FAULT_INJECT`` environment knob (or an explicit argument to
:func:`repro.runtime.run_trials`) into a **deterministic fault plan** the
engine applies while executing an ensemble, so every recovery path can be
exercised reproducibly from tests and the CLI.

The spec is a ``;``-separated list of clauses, each
``kind:key=value[:key=value...]``::

    trial_error:index=3:attempts=1      # trial 3 raises InjectedFault on
                                        # its first attempt (then succeeds)
    worker_crash:nth=2                  # the 2nd pending trial kills its
                                        # worker process (os._exit) on its
                                        # first submission
    worker_crash:index=4:attempts=2     # trial 4 crashes its worker on
                                        # its first two submissions
    slow_trial:index=5:seconds=30       # trial 5 sleeps 30s before
                                        # executing, on its first attempt

``index`` names the trial's **position in the run's spec list** (the same
positions :attr:`~repro.runtime.spec.TrialRunReport.cached_indices`
uses); ``nth`` is 1-based over the *pending* (not cached) trials in
submission order.  ``attempts`` bounds how many attempts (or, for
``worker_crash``, submissions) the fault fires on — the default 1 models
a transient fault that a single retry (or one pool restart) heals, which
is what keeps fault-injected runs **bit-identical** to clean ones: a
retried attempt re-derives the same ``(root seed, index)`` stream, so the
surviving results carry no trace of the fault.

Faults are threaded to workers inside the task payload (never via the
environment), so they apply identically on the serial and pool paths and
never depend on what a worker process inherited at fork time.
``worker_crash`` is a no-op on the serial path — there is no worker to
kill without killing the ensemble itself.

The serve layer (:mod:`repro.serve`) has its own clause vocabulary under
the separate ``REPRO_SERVE_FAULT_INJECT`` knob, targeting *requests*
instead of trials (``nth`` is 1-based over the work requests admitted
past the backpressure gate, in admission order)::

    slow_request:nth=3:seconds=30       # 3rd admitted work request stalls
                                        # 30s inside its deadline watchdog
                                        # (drives a 504)
    handler_error:nth=4                 # 4th admitted work request raises
                                        # InjectedFault in its handler
    pool_breakage:nth=5                 # 5th admitted work request kills
                                        # its pool worker on its first
                                        # submission (drives self-healing
                                        # and the circuit breaker)
    pool_breakage:nth=6:attempts=9      # ...on its first 9 submissions
                                        # (exhausts the restart budget)

Requests are not retried by the server, so ``slow_request`` and
``handler_error`` fire at most once; ``attempts`` only applies to
``pool_breakage``, bounding how many resubmissions crash their worker.
``pool_breakage`` is inert when the server runs its work in-process
(``--n-jobs 1``), mirroring ``worker_crash`` on the serial trial path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.errors import ValidationError

__all__ = [
    "FAULT_INJECT_ENV",
    "FAULT_KINDS",
    "SERVE_FAULT_INJECT_ENV",
    "SERVE_FAULT_KINDS",
    "InjectedFault",
    "TrialFaults",
    "NO_FAULTS",
    "RequestFaults",
    "NO_REQUEST_FAULTS",
    "FaultClause",
    "FaultPlan",
    "ServeFaultPlan",
    "parse_fault_plan",
    "parse_serve_fault_plan",
    "resolve_fault_plan",
    "resolve_serve_fault_plan",
]

FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"
FAULT_KINDS = ("trial_error", "worker_crash", "slow_trial")

SERVE_FAULT_INJECT_ENV = "REPRO_SERVE_FAULT_INJECT"
SERVE_FAULT_KINDS = ("slow_request", "handler_error", "pool_breakage")

# Exit code an injected worker crash dies with: distinguishable from a
# clean exit in worker logs, meaningless otherwise.
CRASH_EXIT_CODE = 87


class InjectedFault(RuntimeError):
    """The transient, retryable error ``trial_error`` clauses raise."""


@dataclass(frozen=True)
class TrialFaults:
    """The faults one trial is subject to (picklable; ships in the task).

    Attributes
    ----------
    error_attempts:
        Attempts 1..N raise :class:`InjectedFault` instead of running.
    slow_attempts / slow_seconds:
        Attempts 1..N sleep ``slow_seconds`` before executing (inside the
        timed section, so a per-trial timeout observes the delay).
    crash_submissions:
        Submissions 1..N kill the worker process (pool paths only; the
        parent decides per submission and never re-arms a crash beyond
        this budget, so pool self-healing terminates).
    """

    error_attempts: int = 0
    slow_attempts: int = 0
    slow_seconds: float = 0.0
    crash_submissions: int = 0

    def merged(self, other: "TrialFaults") -> "TrialFaults":
        """Combine two clauses targeting the same trial (maxima win)."""
        return TrialFaults(
            error_attempts=max(self.error_attempts, other.error_attempts),
            slow_attempts=max(self.slow_attempts, other.slow_attempts),
            slow_seconds=max(self.slow_seconds, other.slow_seconds),
            crash_submissions=max(self.crash_submissions, other.crash_submissions),
        )


NO_FAULTS = TrialFaults()


@dataclass(frozen=True)
class FaultClause:
    """One parsed spec clause (see the module docstring for the grammar)."""

    kind: str
    index: int | None = None
    nth: int | None = None
    attempts: int = 1
    seconds: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """The parsed ``REPRO_FAULT_INJECT`` spec: zero or more clauses."""

    clauses: tuple[FaultClause, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def for_pending(self, pending: Sequence[int]) -> dict[int, TrialFaults]:
        """Resolve the plan against a run's pending positions.

        ``nth`` clauses bind to ``pending[nth - 1]`` (clauses pointing
        past the pending list are inert); ``index`` clauses bind to that
        position directly (inert if the position is cached or absent —
        a cache hit never executes, so it cannot fault).  The result maps
        position → merged :class:`TrialFaults` for every targeted trial.
        """
        pending_set = set(pending)
        targeted: dict[int, TrialFaults] = {}
        for clause in self.clauses:
            if clause.nth is not None:
                if clause.nth > len(pending):
                    continue
                position = pending[clause.nth - 1]
            else:
                position = clause.index
                if position not in pending_set:
                    continue
            faults = _clause_faults(clause)
            previous = targeted.get(position)
            targeted[position] = faults if previous is None else previous.merged(faults)
        return targeted


def _clause_faults(clause: FaultClause) -> TrialFaults:
    if clause.kind == "trial_error":
        return replace(NO_FAULTS, error_attempts=clause.attempts)
    if clause.kind == "slow_trial":
        return replace(
            NO_FAULTS, slow_attempts=clause.attempts, slow_seconds=clause.seconds
        )
    return replace(NO_FAULTS, crash_submissions=clause.attempts)


_TRIAL_EXAMPLES = (
    "trial_error:index=3:attempts=1, worker_crash:nth=2, "
    "slow_trial:index=5:seconds=30"
)
_SERVE_EXAMPLES = (
    "slow_request:nth=3:seconds=30, handler_error:nth=4, "
    "pool_breakage:nth=5:attempts=2"
)


def _clause_error(
    clause: str,
    reason: str,
    kinds: Sequence[str] = FAULT_KINDS,
    examples: str = _TRIAL_EXAMPLES,
) -> ValidationError:
    return ValidationError(
        f"bad fault clause {clause!r}: {reason}; expected "
        f"kind:key=value[:key=value...] with kind one of {', '.join(kinds)} "
        f"(e.g. {examples})"
    )


def _serve_clause_error(clause: str, reason: str) -> ValidationError:
    return _clause_error(clause, reason, SERVE_FAULT_KINDS, _SERVE_EXAMPLES)


def _parse_fields(clause: str, fields: Sequence[str], error=_clause_error) -> dict[str, str]:
    values: dict[str, str] = {}
    for token in fields:
        key, separator, value = token.partition("=")
        if not separator or not key or not value:
            raise error(clause, f"malformed field {token!r}")
        if key in values:
            raise error(clause, f"duplicate key {key!r}")
        values[key] = value
    return values


def _field_int(
    clause: str, values: Mapping[str, str], key: str, minimum: int, error=_clause_error
) -> int:
    raw = values[key]
    try:
        value = int(raw)
    except ValueError as exc:
        raise error(clause, f"{key} must be an integer, got {raw!r}") from exc
    if value < minimum:
        raise error(clause, f"{key} must be >= {minimum}, got {value}")
    return value


def _field_float(
    clause: str, values: Mapping[str, str], key: str, error=_clause_error
) -> float:
    raw = values[key]
    try:
        value = float(raw)
    except ValueError as exc:
        raise error(clause, f"{key} must be a number, got {raw!r}") from exc
    if not (value > 0 and math.isfinite(value)):
        raise error(clause, f"{key} must be positive and finite, got {value}")
    return value


_ALLOWED_KEYS = {
    "trial_error": {"index", "attempts"},
    "slow_trial": {"index", "seconds", "attempts"},
    "worker_crash": {"index", "nth", "attempts"},
}


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a fault spec string into a :class:`FaultPlan`.

    Malformed specs raise :class:`~repro.errors.ValidationError` with the
    offending clause named — an injection harness that silently ignores a
    typo'd fault would "pass" every chaos test vacuously.
    """
    clauses: list[FaultClause] = []
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        kind, *fields = [token.strip() for token in raw.split(":")]
        if kind not in FAULT_KINDS:
            raise _clause_error(raw, f"unknown kind {kind!r}")
        values = _parse_fields(raw, fields)
        unknown = set(values) - _ALLOWED_KEYS[kind]
        if unknown:
            raise _clause_error(
                raw, f"unknown key(s) {', '.join(sorted(unknown))} for {kind}"
            )
        attempts = _field_int(raw, values, "attempts", 1) if "attempts" in values else 1
        if kind == "worker_crash":
            if ("index" in values) == ("nth" in values):
                raise _clause_error(raw, "needs exactly one of index= or nth=")
            index = _field_int(raw, values, "index", 0) if "index" in values else None
            nth = _field_int(raw, values, "nth", 1) if "nth" in values else None
            clauses.append(
                FaultClause(kind=kind, index=index, nth=nth, attempts=attempts)
            )
            continue
        if "index" not in values:
            raise _clause_error(raw, "needs index=")
        index = _field_int(raw, values, "index", 0)
        seconds = 0.0
        if kind == "slow_trial":
            if "seconds" not in values:
                raise _clause_error(raw, "needs seconds=")
            seconds = _field_float(raw, values, "seconds")
        clauses.append(
            FaultClause(kind=kind, index=index, attempts=attempts, seconds=seconds)
        )
    return FaultPlan(clauses=tuple(clauses))


def resolve_fault_plan(faults: "str | FaultPlan | None" = None) -> FaultPlan:
    """Resolve the fault plan: argument, then ``REPRO_FAULT_INJECT``,
    then the empty (fault-free) plan."""
    if isinstance(faults, FaultPlan):
        return faults
    if faults is None:
        faults = os.environ.get(FAULT_INJECT_ENV) or ""
    return parse_fault_plan(faults)


@dataclass(frozen=True)
class RequestFaults:
    """The faults one serve request is subject to.

    Attributes
    ----------
    error:
        The handler raises :class:`InjectedFault` instead of executing
        (the server answers with a structured 503).
    slow_seconds:
        The handler sleeps this long before executing, inside the
        per-request deadline watchdog (so ``REPRO_SERVE_TIMEOUT``
        observes the stall and answers 504).
    crash_submissions:
        Submissions 1..N of this request's pool work kill their worker
        process, driving the server's pool self-healing (and, when the
        restart budget is exhausted, the circuit breaker).
    """

    error: bool = False
    slow_seconds: float = 0.0
    crash_submissions: int = 0

    def merged(self, other: "RequestFaults") -> "RequestFaults":
        """Combine two clauses targeting the same request (maxima win)."""
        return RequestFaults(
            error=self.error or other.error,
            slow_seconds=max(self.slow_seconds, other.slow_seconds),
            crash_submissions=max(self.crash_submissions, other.crash_submissions),
        )


NO_REQUEST_FAULTS = RequestFaults()


@dataclass(frozen=True)
class ServeFaultPlan:
    """The parsed ``REPRO_SERVE_FAULT_INJECT`` spec: zero or more clauses.

    All serve clauses target by ``nth`` — the 1-based position of a work
    request (``/fit``, ``/sample``, ``/release``) in admission order —
    which is the only stable coordinate under concurrent clients.
    """

    clauses: tuple[FaultClause, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def for_request(self, nth: int) -> RequestFaults:
        """The merged faults the ``nth`` admitted work request suffers."""
        faults = NO_REQUEST_FAULTS
        for clause in self.clauses:
            if clause.nth != nth:
                continue
            if clause.kind == "handler_error":
                faults = faults.merged(RequestFaults(error=True))
            elif clause.kind == "slow_request":
                faults = faults.merged(RequestFaults(slow_seconds=clause.seconds))
            else:  # pool_breakage
                faults = faults.merged(
                    RequestFaults(crash_submissions=clause.attempts)
                )
        return faults


_SERVE_ALLOWED_KEYS = {
    "slow_request": {"nth", "seconds"},
    "handler_error": {"nth"},
    "pool_breakage": {"nth", "attempts"},
}


def parse_serve_fault_plan(spec: str) -> ServeFaultPlan:
    """Parse a serve fault spec string into a :class:`ServeFaultPlan`.

    Same strictness contract as :func:`parse_fault_plan`: malformed specs
    raise :class:`~repro.errors.ValidationError` naming the clause.
    """
    clauses: list[FaultClause] = []
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        kind, *fields = [token.strip() for token in raw.split(":")]
        if kind not in SERVE_FAULT_KINDS:
            raise _serve_clause_error(raw, f"unknown kind {kind!r}")
        values = _parse_fields(raw, fields, _serve_clause_error)
        unknown = set(values) - _SERVE_ALLOWED_KEYS[kind]
        if unknown:
            raise _serve_clause_error(
                raw, f"unknown key(s) {', '.join(sorted(unknown))} for {kind}"
            )
        if "nth" not in values:
            raise _serve_clause_error(raw, "needs nth=")
        nth = _field_int(raw, values, "nth", 1, _serve_clause_error)
        seconds = 0.0
        if kind == "slow_request":
            if "seconds" not in values:
                raise _serve_clause_error(raw, "needs seconds=")
            seconds = _field_float(raw, values, "seconds", _serve_clause_error)
        attempts = 1
        if "attempts" in values:
            attempts = _field_int(raw, values, "attempts", 1, _serve_clause_error)
        clauses.append(
            FaultClause(kind=kind, nth=nth, attempts=attempts, seconds=seconds)
        )
    return ServeFaultPlan(clauses=tuple(clauses))


def resolve_serve_fault_plan(
    faults: "str | ServeFaultPlan | None" = None,
) -> ServeFaultPlan:
    """Resolve the serve fault plan: argument, then
    ``REPRO_SERVE_FAULT_INJECT``, then the empty (fault-free) plan."""
    if isinstance(faults, ServeFaultPlan):
        return faults
    if faults is None:
        faults = os.environ.get(SERVE_FAULT_INJECT_ENV) or ""
    return parse_serve_fault_plan(faults)
