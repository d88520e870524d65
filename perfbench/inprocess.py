"""Closed-loop runner for the in-process workloads.

One caller issues a workload's ops back to back.  Pass 0 is the warm-up
and is not timed.  The timed window then runs *rounds*: each round runs
every op of the timed op set once, in the same order.  There are at
least two rounds, and more while the next one is expected to end
within ``--seconds``.  Each op run is timed on a
:class:`~perfbench.measure.HostClock`, which reads it against a
yardstick run right before and after it, and an op's latency is the
lowest of its runs.  Its runs are a round apart and do identical work
(the digests prove it), so what the lowest run leaves out is
contention from other tenants of a shared host, which made most of the
run-to-run spread of plain wall times.

A traced run times passes twice each, first untraced and then traced,
so the tracing overhead compares identical work and the traced re-run
doubles as a repeatability check.
"""

from __future__ import annotations

import itertools
import statistics
import subprocess
import sys
import time

from perfbench import workloads as W
from perfbench.common import ROOT, SETUP_REPEATS, Outcome
from perfbench.measure import HostClock, digest, percentile, read_peak_rss_mb
from perfbench.metrics import EXACT, delta, layer_values
from perfbench.tracer import LAYER_TARGETS, Tracer, installed_wrappers
from repro.runtime.engine import pool_worker_pids, shutdown_pool
from repro.stats.kernels import kernel_pass_count

__all__ = ["run_inprocess"]


def _snapshot(tracer: Tracer) -> dict:
    snapshot = tracer.snapshot()
    snapshot["counts"]["stats.kernels.passes"] = kernel_pass_count()
    return snapshot


class _Runner:
    """Runs passes of ops and keeps the outcome's books."""

    def __init__(self, args, graphs: dict, outcome: Outcome) -> None:
        self.args = args
        self.graphs = graphs
        self.outcome = outcome
        self.make_ops = W.WORKLOADS[args.workload].make_ops

    def run_pass(self, pass_index: int, latencies: dict | None,
                 clock: HostClock | None = None) -> float:
        """Run pass ``pass_index``; returns its wall seconds.

        ``latencies`` maps each unit to its timed runs' seconds: costs on
        ``clock`` when one is given, else wall seconds.  It is ``None``
        for untimed passes.  Every run's digest is checked.
        """
        outcome = self.outcome
        ops = self.make_ops(self.args.seed, pass_index, self.graphs)
        first_unit = pass_index * len(ops)
        start = time.perf_counter()
        for slot, op in enumerate(ops):
            unit = first_unit + slot
            began = time.perf_counter()
            try:
                if clock is None:
                    result = op.run()
                    seconds = time.perf_counter() - began
                else:
                    result, seconds = clock.cost(op.run)
                value = digest(op.summary(result))
            except Exception as exc:
                value = None
                seconds = time.perf_counter() - began
                outcome.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            ok = outcome.check_unit(unit, value, op.label)
            if latencies is not None:
                latencies.setdefault(unit, []).append(seconds)
                outcome.attempted += 1
                outcome.failed += not ok
        return time.perf_counter() - start


def _setup_seconds(workload: str) -> float:
    """Median cost, on a host clock, of spawning a set-up probe until it is ready."""
    command = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload]
    clock = HostClock()
    times = []
    for _ in range(SETUP_REPEATS):
        proc = None

        def spawn_until_ready() -> str:
            nonlocal proc
            proc = subprocess.Popen(
                command, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                text=True,
            )
            return proc.stdout.readline().strip()

        try:
            line, seconds = clock.cost(spawn_until_ready)
            times.append(seconds)
        finally:
            if proc is not None:
                if proc.poll() is None:
                    proc.terminate()
                proc.wait(timeout=60)
                proc.stdout.close()
        if line != "ready":
            raise RuntimeError(f"set-up probe printed {line!r}")
    return statistics.median(times)


def _peak_rss_mb() -> float:
    # Pool workers are separate processes; their peaks add to the caller's.
    return read_peak_rss_mb() + sum(read_peak_rss_mb(pid) for pid in pool_worker_pids())


def _timed_passes(workload: str) -> range:
    return range(1, 1 + W.WORKLOADS[workload].timed_passes)


def run_inprocess(args, outcome: Outcome) -> None:
    graphs = W.prepare(args.workload)
    if not args.trace and not args.record_golden:
        outcome.metrics["setup_s"] = _setup_seconds(args.workload)
    runner = _Runner(args, graphs, outcome)
    try:
        runner.run_pass(0, None)
        if args.record_golden:
            for pass_index in _timed_passes(args.workload):
                runner.run_pass(pass_index, None)
        elif args.trace:
            _traced_window(args, runner)
        else:
            _untraced_window(args, runner)
    finally:
        shutdown_pool()
    leftover = installed_wrappers(LAYER_TARGETS)
    if leftover:
        outcome.errors.append(f"tracer wrappers left installed: {leftover}")


def latency_metrics(latencies: dict, wrong_units: set) -> dict:
    """End-to-end metrics from every unit's timed runs.

    An op's latency is the lowest of its runs' costs.  ``ops_per_s`` is
    the ops that gave the right output over the summed latencies of all
    ops, so a wrong or failed op costs its time and counts for nothing.
    """
    best = {unit: min(runs) for unit, runs in latencies.items()}
    right = sum(unit not in wrong_units for unit in best)
    return {
        "ops_per_s": right / sum(best.values()),
        "op_p50_ms": percentile(list(best.values()), 50) * 1e3,
        "op_p90_ms": percentile(list(best.values()), 90) * 1e3,
    }


def _untraced_window(args, runner: _Runner) -> None:
    latencies: dict[int, list] = {}
    clock = HostClock()
    elapsed = 0.0
    rounds = 0
    # Two rounds at least: an op's latency is the lowest of its runs.
    while rounds < 2 or elapsed * (rounds + 1) / rounds <= args.seconds:
        for pass_index in _timed_passes(args.workload):
            elapsed += runner.run_pass(pass_index, latencies, clock)
        rounds += 1
    runner.outcome.metrics.update(
        latency_metrics(latencies, runner.outcome.wrong_units), peak_rss_mb=_peak_rss_mb()
    )
    print(
        f"perfbench: {len(latencies)} ops, each timed {rounds} times, over {elapsed:.2f} s "
        f"({clock.reference_seconds:.2f} s of it on the yardstick)",
        file=sys.stderr,
    )


def _traced_window(args, runner: _Runner) -> None:
    """Each pass untraced, then again traced; layer metrics per pass."""
    outcome = runner.outcome
    tracer = Tracer()
    seconds = {"plain": 0.0, "traced": 0.0}
    latencies: dict[str, dict] = {"plain": {}, "traced": {}}
    passes = []
    order = itertools.cycle(_timed_passes(args.workload))
    while seconds["plain"] < args.seconds / 2:
        pass_index = next(order)
        seconds["plain"] += runner.run_pass(pass_index, latencies["plain"])
        before = _snapshot(tracer)
        tracer.install(LAYER_TARGETS)
        try:
            seconds["traced"] += runner.run_pass(pass_index, latencies["traced"])
        finally:
            tracer.uninstall()
        passes.append(delta(_snapshot(tracer), before))
    total = delta(_snapshot(tracer), {})
    values = layer_values(passes[0], total, len(passes))
    if args.workload == "table1-grid":
        pool_grid_seconds = statistics.median(min(runs) for runs in latencies["plain"].values())
        values.update(_serial_grid_layers(args, runner, pool_grid_seconds, values))
    tracer.write_spans(_spans_path(args))
    ops = sum(len(runs) for runs in latencies["plain"].values())
    untraced_rate = ops / seconds["plain"]
    traced_rate = ops / seconds["traced"]
    values.update(
        {
            "trace.ops_per_s_untraced": untraced_rate,
            "trace.ops_per_s_traced": traced_rate,
            "trace.overhead_ops_per_s": traced_rate - untraced_rate,
        }
    )
    outcome.exact = {key: values[key] for key in sorted(EXACT) if key in values}
    outcome.metrics.update(values)


_RUNTIME_KEYS = (
    "runtime.run_trials.calls",
    "runtime.run_trials.busy_s",
    "runtime.executed",
    "runtime.retried",
    "runtime.failed",
    "runtime.pool_restarts",
)


def _serial_grid_layers(args, runner: _Runner, pool_grid_seconds: float,
                        pool_values: dict) -> dict:
    """Layer metrics of one traced serial grid, plus the pool's runtime ones.

    Pool workers run outside the tracer's reach, so every layer below the
    runtime is read from one in-process (``n_jobs=1``) run of pass 1's
    grid, which must also reproduce the pooled output bit for bit.
    """
    tracer = Tracer()
    config = W.table1_config(W.table1_seed(args.seed, 1), n_jobs=1)
    before = _snapshot(tracer)
    tracer.install(LAYER_TARGETS)
    try:
        start = time.perf_counter()
        rows = W.run_table1(config=config)
        serial_seconds = time.perf_counter() - start
    finally:
        tracer.uninstall()
    op = runner.make_ops(args.seed, 1, runner.graphs)[0]
    if digest(op.summary(rows)) != runner.outcome.unit_digests[1]:
        runner.outcome.errors.append("serial table1 grid differs from the pooled grid")
    serial = delta(_snapshot(tracer), before)
    values = layer_values(serial, serial, 1)
    values.update({key: pool_values[key] for key in _RUNTIME_KEYS})
    values["runtime.parallel_efficiency"] = serial_seconds / (
        W.TABLE1_JOBS * pool_grid_seconds
    )
    return values


def _spans_path(args):
    path = ROOT / ".bench_build" / "perfbench" / "spans"
    path.mkdir(parents=True, exist_ok=True)
    return path / f"{args.workload}-seed{args.seed}.json"
