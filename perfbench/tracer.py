"""In-memory spans around the program's public functions, installed from outside.

The benchmark never edits ``src/``.  A :class:`Tracer` replaces named
attributes (module functions, class methods) with timing wrappers, keeps
every span in memory, and restores the originals on :meth:`Tracer.uninstall`.
Untraced runs install nothing, so their end-to-end numbers carry no
wrapper cost; :func:`installed_wrappers` lets a run prove that.

Each span records (id, name, start, end, parent id).  A span's *self*
time is its duration minus the time of the spans nested inside it, so
``likelihood.run.self_s`` is the part of a chain run spent outside the
proposal draw and the native kernel.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Target", "Tracer", "LAYER_TARGETS", "installed_wrappers"]

_WRAPPED = "__perfbench_span__"


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``owner`` is ``"package.module"`` or ``"package.module:Class"``.
    ``before(args)`` runs ahead of each call and ``after(tracer, args,
    result, before_value)`` after it, to add counts.  With ``factory``
    set the attribute returns a callable (a native kernel), and the
    callable it returns is what gets timed under ``span``.
    """

    owner: str
    attr: str
    span: str
    after: Callable[..., None] | None = None
    before: Callable[[tuple], Any] | None = None
    factory: bool = False


class Tracer:
    """Wrap targets, time every call, aggregate calls / busy / self time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple[Any, str, Any]] = []
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    # -- install / uninstall ---------------------------------------------

    def install(self, targets) -> None:
        """Replace every target attribute with a timing wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for target in targets:
                owner = _resolve_owner(target.owner)
                original = owner.__dict__[target.attr]
                setattr(owner, target.attr, self._wrap_target(target, original))
                self._patches.append((owner, target.attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every original attribute (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap_target(self, target: Target, original):
        if not target.factory:
            return self.wrap(target.span, original, target.after, target.before)

        def make(*args, **kwargs):
            return self.wrap(target.span, original(*args, **kwargs), target.after)

        make.__wrapped__ = original
        setattr(make, _WRAPPED, target.span)
        return make

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after=None, before=None) -> Callable:
        """``fn`` timed as span ``name``, with optional count hooks."""

        def wrapper(*args, **kwargs):
            probe = before(args) if before is not None else None
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if after is not None:
                after(self, args, result, probe)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, _WRAPPED, name)
        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        stack = self._stack()
        # [span id, parent id, start, time covered by child spans]
        frame = [next(self._ids), stack[-1][0] if stack else -1, 0.0, 0.0]
        stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, start, children = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        with self._lock:
            self.spans.append((span_id, name, start, end, parent))
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - children

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` (thread-safe)."""
        with self._lock:
            self.counts[name] += value

    def snapshot(self) -> dict:
        """Aggregates so far, as plain dicts."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "busy": dict(self.busy),
                "self": dict(self.self_time),
                "counts": dict(self.counts),
            }

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the in-memory spans as compact JSON (once, at the end)."""
        with self._lock:
            spans = sorted(self.spans)
        names: dict[str, int] = {}
        origin = min((span[2] for span in spans), default=0.0)
        rows = [
            [
                span_id,
                names.setdefault(name, len(names)),
                round((start - origin) * 1e6),
                round((end - start) * 1e6),
                parent,
            ]
            for span_id, name, start, end, parent in spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": list(names),
                    "columns": ["id", "name", "start_us", "duration_us", "parent"],
                    "spans": rows,
                },
                handle,
                separators=(",", ":"),
            )


def _resolve_owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


def installed_wrappers(targets) -> list[str]:
    """``owner.attr`` of every target that is currently a tracer wrapper."""
    return [
        f"{target.owner}.{target.attr}"
        for target in targets
        if hasattr(_resolve_owner(target.owner).__dict__.get(target.attr), _WRAPPED)
    ]


# -- count hooks ------------------------------------------------------------


def _minimize_after(tracer: Tracer, args, result, _) -> None:
    tracer.count("kronmom.minimize.nit", int(result.nit))
    tracer.count("kronmom.minimize.nfev", int(result.nfev))


def _sample_after(tracer: Tracer, args, graph, _) -> None:
    tracer.count("sampling.edges", int(graph.n_edges))


def _chain_observables(args) -> tuple[int, int]:
    """(proposals made, score-table touches) so far by a chain sampler."""
    sampler = args[0]
    return sampler.proposed, sampler.score_touches


def _chain_run_after(tracer: Tracer, args, result, before) -> None:
    proposed, touches = _chain_observables(args)
    tracer.count("likelihood.proposals", proposed - before[0])
    tracer.count("likelihood.score_touches", touches - before[1])


def _kronfit_after(tracer: Tracer, args, result, _) -> None:
    tracer.count("kronfit.fits", 1)
    tracer.count("kronfit.acceptance_sum", float(result.acceptance_rate))


def _run_trials_after(tracer: Tracer, args, report, _) -> None:
    tracer.count("runtime.executed", report.executed)
    tracer.count("runtime.retried", report.retried)
    tracer.count("runtime.failed", report.failed)
    tracer.count("runtime.pool_restarts", report.pool_restarts)


# The layer boundaries the benchmark times, each as the program binds it.
LAYER_TARGETS: tuple[Target, ...] = (
    Target("repro.kronecker.kronmom", "expected_feature_vector", "moments.efv"),
    Target("repro.kronecker.kronmom:KronMomEstimator", "fit_statistics",
           "kronmom.fit_statistics"),
    Target("scipy.optimize", "minimize", "kronmom.minimize", _minimize_after),
    Target("repro.core.estimator", "release_matching_statistics", "privacy.release"),
    Target("repro.privacy.stats_release", "release_sorted_degrees",
           "privacy.degree_release"),
    Target("repro.privacy.stats_release", "release_triangle_count",
           "privacy.triangle_release"),
    Target("repro.privacy.accountant:PrivacyAccountant", "charge", "privacy.charge"),
    Target("repro.stats.counts", "matching_statistics", "stats.matching_statistics"),
    Target("repro.kronecker.kronmom", "matching_statistics", "stats.matching_statistics"),
    Target("repro.kronecker.sampling", "sample_skg", "sampling.sample_skg", _sample_after),
    Target("repro.kronecker.likelihood:PermutationSampler", "run", "likelihood.run",
           _chain_run_after, _chain_observables),
    Target("repro.kronecker.likelihood", "draw_proposal_batch", "chain.draw"),
    Target("repro.kronecker.likelihood", "chain_kernel", "chain.kernel", factory=True),
    Target("repro.kronecker.likelihood:PermutationSampler", "set_theta",
           "likelihood.set_theta"),
    Target("repro.kronecker.likelihood:ProfileLikelihood", "gradient",
           "likelihood.gradient"),
    Target("repro.kronecker.kronfit:KronFitEstimator", "fit", "kronfit.fit",
           _kronfit_after),
    Target("repro.runtime", "run_trials", "runtime.run_trials", _run_trials_after),
    Target("repro.scenarios.engine", "run_trials", "runtime.run_trials",
           _run_trials_after),
)
