"""serve-mix: ``repro serve`` as a subprocess, driven by two closed-loop clients.

The request plan is a pure function of the workload seed.  Block ``b``
fits a fresh KronMom model, samples from it, releases a fresh Private
model, and repeats three of those requests (cache hits):

* client 0: ``/fit`` (miss), ``/sample`` (miss), then ``/fit``,
  ``/sample``, ``/fit`` again (hits);
* client 1: ``/release`` (miss), then ``/release`` twice (hits).

Five of every eight requests are hits, so p50 sits in the hit mode and
p90 in the compute mode.  A pass is four blocks, one per dataset for
each request class; both clients finish a pass before the next starts,
so every run's hit, miss and fit counts per pass are identical.  The
per-dataset budget covers every release the plan can issue
(:data:`MAX_PASSES` passes), so no request is refused by design.

Unlike the in-process workloads, every pass has fresh seeds: repeating
a request would only hit the server's response cache.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from perfbench.common import BUILD, ROOT, SETUP_REPEATS, Outcome
from perfbench.measure import HostClock, digest, percentile, read_peak_rss_mb
from perfbench.metrics import EXACT, STRUCTURAL, delta, exact_view, layer_values
from perfbench.workloads import derive_seed

__all__ = ["run_serve_mix", "plan_pass"]

# Passes a run may make, warm-up included.  The committed digests and the
# privacy budget cover them all, so a run on a much faster program stops here.
MAX_PASSES = 48
DATASETS = ("as20", "ca-grqc", "synthetic-kronecker", "skg-k16")
BLOCKS_PER_PASS = len(DATASETS)
SAMPLE_COUNT = 2
# Dyadic budgets: ledger sums are exact in any charge order.
RELEASE_EPSILON = 2.0**-3
RELEASE_DELTA = 2.0**-10
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


@dataclass(frozen=True)
class Request:
    kind: str  # fit | sample | release | hit
    path: str
    body: dict
    # Block of the pass the request belongs to.
    block: int = 0
    # Index, within the same client's pass, of the request a hit repeats.
    repeats: int | None = None


def plan_pass(seed: int, pass_index: int) -> tuple[list[Request], list[Request]]:
    """The two clients' request lists for pass ``pass_index``."""
    first, second = [], []
    for offset in range(BLOCKS_PER_PASS):
        block = pass_index * BLOCKS_PER_PASS + offset
        model = {
            "dataset": DATASETS[block % len(DATASETS)],
            "method": "kronmom",
            "seed": derive_seed(seed, 4, block, 0),
        }
        release = {
            "dataset": DATASETS[(block + 2) % len(DATASETS)],
            "method": "private",
            "epsilon": RELEASE_EPSILON,
            "delta": RELEASE_DELTA,
            "seed": derive_seed(seed, 4, block, 1),
            "count": 1,
        }
        base = len(first)
        sample = {**model, "count": SAMPLE_COUNT}
        first += [
            Request("fit", "/fit", model, offset),
            Request("sample", "/sample", sample, offset),
            Request("hit", "/fit", model, offset, base),
            Request("hit", "/sample", sample, offset, base + 1),
            Request("hit", "/fit", model, offset, base),
        ]
        base = len(second)
        second += [
            Request("release", "/release", release, offset),
            Request("hit", "/release", release, offset, base),
            Request("hit", "/release", release, offset, base),
        ]
    return first, second


@dataclass
class Reply:
    request: Request
    status: int
    cache: str | None
    body: bytes
    seconds: float
    # Why the reply is wrong, or ``None``.
    problem: str | None = None


class Server:
    """One ``repro serve`` subprocess with a fresh ledger directory."""

    def __init__(self, name: str, traced: bool, seed: int) -> None:
        self.dir = BUILD / "serve" / f"{name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.ledger_dir = self.dir / "ledger"
        self.spans = self.dir / "spans.json"
        self.traced = traced
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def start(self) -> None:
        """Spawn and return once ``/readyz`` answered 200."""
        if self.traced:
            command = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                       "--ledger-dir", str(self.ledger_dir), "--spans", str(self.spans)]
        else:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                       "--ledger-dir", str(self.ledger_dir)]
        env = dict(
            os.environ,
            REPRO_SERVE_BUDGET_EPSILON=repr(MAX_PASSES * RELEASE_EPSILON),
            REPRO_SERVE_BUDGET_DELTA=repr(MAX_PASSES * RELEASE_DELTA),
        )
        log = self.dir / "server.log"
        deadline = time.perf_counter() + READY_TIMEOUT
        with open(log, "w") as handle:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        while not self.port:
            self._check_alive(deadline)
            for line in log.read_text().splitlines():
                if line.startswith("repro serve listening on http://"):
                    self.host, port = line.rsplit("/", 1)[1].rsplit(":", 1)
                    self.port = int(port)
            time.sleep(0.002)
        connection = self.connect()
        try:
            while True:
                self._check_alive(deadline)
                try:
                    if self.request(connection, "GET", "/readyz")[0] == 200:
                        return
                except OSError:
                    connection.close()
                    connection = self.connect()
                time.sleep(0.002)
        finally:
            connection.close()

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited with code {self.proc.returncode}")
        if time.perf_counter() > deadline:
            raise RuntimeError("server did not become ready")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    @staticmethod
    def request(connection, verb: str, path: str, body: dict | None = None):
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(verb, path, payload, headers)
        response = connection.getresponse()
        return response.status, response.getheader("X-Repro-Cache"), response.read()

    def stats(self) -> dict:
        connection = self.connect()
        try:
            status, _, body = self.request(connection, "GET", "/stats")
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return read_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; kill if it does not exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT)
            raise RuntimeError("server did not drain within its deadline") from None

    def ledger(self) -> dict[str, list[dict]]:
        return {
            path.stem: json.loads(path.read_text())["ledger"]
            for path in sorted(self.ledger_dir.glob("*.json"))
        }


def _client(server: Server, connection, requests: list[Request], replies: list) -> None:
    for request in requests:
        began = time.perf_counter()
        try:
            status, cache, body = server.request(connection, "POST", request.path, request.body)
        except (OSError, http.client.HTTPException) as exc:
            status, cache, body = 0, None, repr(exc).encode()
            connection.close()
        replies.append(Reply(request, status, cache, body, time.perf_counter() - began))


def _run_all(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _serve_counts(stats: dict) -> dict:
    return {
        "serve.cache_hits": stats["responses"]["hits"],
        "serve.cache_misses": stats["responses"]["misses"],
        "serve.models_fitted": stats["models"]["fitted"],
        "serve.rejected_429": stats["admission"]["rejected"],
    }


def _snapshot(server: Server) -> dict:
    stats = server.stats()
    snapshot = stats.get("perfbench") or {"calls": {}, "busy": {}, "self": {}, "counts": {}}
    snapshot["counts"].update(_serve_counts(stats))
    return snapshot


class _Traffic:
    """Drives one server through warm-up and timed passes."""

    def __init__(self, server: Server, seed: int, outcome: Outcome) -> None:
        self.server = server
        self.seed = seed
        self.outcome = outcome
        self.connections = [server.connect(), server.connect()]
        # Per timed pass: wall seconds, the host clock's scale, replies, snapshot delta.
        self.passes: list[dict] = []
        self.clock = HostClock()
        self.releases: dict[str, int] = {}
        self.peak_rss_mb = 0.0

    def run_pass(self, pass_index: int, timed: bool) -> None:
        plans = plan_pass(self.seed, pass_index)
        replies: list[list[Reply]] = [[], []]
        before = _snapshot(self.server)
        threads = [
            threading.Thread(target=_client, args=(self.server, conn, plan, out))
            for conn, plan, out in zip(self.connections, plans, replies)
        ]
        _, seconds, scale = self.clock.time(lambda: _run_all(threads))
        after = _snapshot(self.server)
        self._check(pass_index, replies)
        if timed:
            every = replies[0] + replies[1]
            self.outcome.attempted += len(every)
            self.outcome.failed += sum(reply.problem is not None for reply in every)
            self.passes.append(
                {"seconds": seconds, "scale": scale, "replies": every,
                 "delta": delta(after, before)}
            )

    def _check(self, pass_index: int, replies: list[list[Reply]]) -> None:
        """Validate every reply, then every block's digest of its miss bodies.

        A block whose digest is wrong fails all of its requests.
        """
        outcome = self.outcome
        misses: list[list[bytes]] = [[] for _ in range(BLOCKS_PER_PASS)]
        for client_replies in replies:
            for reply in client_replies:
                request = reply.request
                reply.problem = self._problem(reply, client_replies)
                if reply.problem is not None:
                    outcome.errors.append(
                        f"pass {pass_index} {request.path} "
                        f"{request.body['dataset']}: {reply.problem}"
                    )
                elif request.kind != "hit":
                    misses[request.block].append(reply.body)
                    if request.kind == "release":
                        dataset = request.body["dataset"]
                        self.releases[dataset] = self.releases.get(dataset, 0) + 1
        for block, bodies in enumerate(misses):
            unit = pass_index * BLOCKS_PER_PASS + block
            if not outcome.check_unit(unit, digest(b"".join(bodies)), f"pass {pass_index}"):
                for reply in replies[0] + replies[1]:
                    if reply.request.block == block and reply.problem is None:
                        reply.problem = f"block {block}'s responses are wrong"

    @staticmethod
    def _problem(reply: Reply, client_replies: list[Reply]) -> str | None:
        request = reply.request
        if reply.status != 200:
            return f"status {reply.status}: {reply.body[:200]!r}"
        if reply.cache != ("hit" if request.kind == "hit" else "miss"):
            return f"expected a cache {request.kind}, got {reply.cache}"
        if request.kind == "hit":
            if reply.body != client_replies[request.repeats].body:
                return "cached body differs from the computed one"
            return None
        body = json.loads(reply.body)
        count = request.body.get("count")
        if count is not None:
            samples = body.get("samples", [])
            if len(samples) != count:
                return f"{len(samples)} samples for count={count}"
            for row in samples:
                n = row["n_nodes"]
                if n < 1 or n & (n - 1):
                    return f"sampled graph has {n} nodes, not a power of two"
        return None

    def check_ledger(self) -> None:
        """Each dataset's ledger must sum to exactly what was released."""
        ledgers = self.server.ledger()
        for dataset in sorted(set(ledgers) | set(self.releases)):
            entries = ledgers.get(dataset, [])
            count = self.releases.get(dataset, 0)
            spent = (math.fsum(e["epsilon"] for e in entries),
                     math.fsum(e["delta"] for e in entries))
            planned = (count * RELEASE_EPSILON, count * RELEASE_DELTA)
            if spent != planned or len(entries) != count:
                self.outcome.errors.append(
                    f"ledger {dataset}: {len(entries)} entries spending {spent}, "
                    f"planned {count} releases spending {planned}"
                )

    def close(self) -> None:
        for connection in self.connections:
            connection.close()


def _drive(server: Server, args, outcome: Outcome, seconds: float) -> _Traffic:
    """Warm-up pass, then timed passes while the next one is expected to end
    within ``seconds``; then drain the server."""
    traffic = _Traffic(server, args.seed, outcome)
    try:
        traffic.run_pass(0, timed=False)
        elapsed = 0.0
        pass_index = 1
        while pass_index < MAX_PASSES and (
            args.record_golden or pass_index == 1
            or elapsed * pass_index / (pass_index - 1) <= seconds
        ):
            traffic.run_pass(pass_index, timed=not args.record_golden)
            elapsed += traffic.passes[-1]["seconds"] if traffic.passes else 0.0
            pass_index += 1
        traffic.peak_rss_mb = server.peak_rss_mb()
    finally:
        traffic.close()
        server.stop()
    traffic.check_ledger()
    return traffic


def _latency_metrics(traffic: _Traffic) -> dict:
    """Client-side metrics: medians of per-pass rates, latency percentiles.

    Pass times and the latencies of computed requests are costs: wall
    seconds times the run's host-clock scale, the median of its passes'
    scales.  Cache hits keep their wall latency: most of it is the
    kernel's 40-ms delayed-ACK timer (the server writes a response's
    headers and body in two sends), which host speed does not change.
    """
    scale = statistics.median(p["scale"] for p in traffic.passes)
    latencies = {kind: [] for kind in ("all", "hit", "sample", "fit", "release")}
    ok_rates, graph_rates = [], []
    for timed_pass in traffic.passes:
        ok = [reply for reply in timed_pass["replies"] if reply.problem is None]
        graphs = sum(
            reply.request.body.get("count", 0)
            for reply in ok
            if reply.request.kind in ("sample", "release")
        )
        ok_rates.append(len(ok) / (timed_pass["seconds"] * scale))
        graph_rates.append(graphs / (timed_pass["seconds"] * scale))
        for reply in timed_pass["replies"]:
            kind = reply.request.kind
            seconds = reply.seconds * (1.0 if kind == "hit" else scale)
            latencies["all"].append(seconds)
            latencies[kind].append(seconds)
    values = {
        "ops_per_s": statistics.median(ok_rates),
        "op_p50_ms": percentile(latencies["all"], 50) * 1e3,
        "op_p90_ms": percentile(latencies["all"], 90) * 1e3,
        "serve.graphs_per_s": statistics.median(graph_rates),
    }
    for kind in ("hit", "sample", "fit", "release"):
        values[f"serve.{kind}_p50_ms"] = percentile(latencies[kind], 50) * 1e3
    raw = [reply.seconds for p in traffic.passes for reply in p["replies"]]
    print(
        f"perfbench: {len(raw)} request latencies in {len(traffic.passes)} passes over "
        f"{sum(p['seconds'] for p in traffic.passes):.2f} s; wall p50 "
        f"{percentile(raw, 50) * 1e3:.1f} ms, p90 {percentile(raw, 90) * 1e3:.1f} ms; "
        "scales " + " ".join(f"{p['scale']:.3f}" for p in traffic.passes),
        file=sys.stderr,
    )
    return values


def _check_structure(traffic: _Traffic) -> dict:
    """Every pass must repeat the plan's structural counts exactly."""
    reference = {
        key: value for key, value in exact_view(traffic.passes[0]["delta"]).items()
        if key in STRUCTURAL
    }
    for index, timed_pass in enumerate(traffic.passes[1:], start=2):
        view = exact_view(timed_pass["delta"])
        changed = sorted(key for key in reference if view[key] != reference[key])
        if changed:
            traffic.outcome.errors.append(
                f"NONDETERMINISM: pass {index} structural counts differ: {changed}"
            )
    return reference


def run_serve_mix(args, outcome: Outcome) -> None:
    if args.trace:
        _traced_run(args, outcome)
        return
    servers = []
    try:
        setup = []
        clock = HostClock()
        for attempt in range(SETUP_REPEATS if not args.record_golden else 1):
            server = Server(f"setup{attempt}", traced=False, seed=args.seed)
            servers.append(server)
            setup.append(clock.cost(server.start)[1])
            if attempt < SETUP_REPEATS - 1 and not args.record_golden:
                server.stop()
        traffic = _drive(servers[-1], args, outcome, args.seconds)
    finally:
        for server in servers:
            server.stop()
    if args.record_golden:
        return
    _check_structure(traffic)
    values = _latency_metrics(traffic)
    outcome.metrics.update(
        setup_s=statistics.median(setup),
        ops_per_s=values["ops_per_s"],
        op_p50_ms=values["op_p50_ms"],
        op_p90_ms=values["op_p90_ms"],
        peak_rss_mb=traffic.peak_rss_mb,
    )


def _traced_run(args, outcome: Outcome) -> None:
    """Half the window on a plain server, half on a traced one."""
    runs = {}
    for traced in (False, True):
        server = Server("traced" if traced else "plain", traced=traced, seed=args.seed)
        try:
            server.start()
            runs[traced] = _drive(server, args, outcome, args.seconds / 2)
        finally:
            server.stop()
    plain, traced = runs[False], runs[True]
    plain_counts = _check_structure(plain)
    traced_counts = _check_structure(traced)
    differing = sorted(
        key for key in plain_counts
        if key.startswith("serve.") and plain_counts[key] != traced_counts[key]
    )
    if differing:
        outcome.errors.append(f"traced server's per-pass counts differ: {differing}")
    first = traced.passes[0]["delta"]
    total = {section: {} for section in first}
    for timed_pass in traced.passes:
        for section, values in timed_pass["delta"].items():
            for key, value in values.items():
                total[section][key] = total[section].get(key, 0) + value
    values = layer_values(first, total, len(traced.passes))
    plain_values = _latency_metrics(plain)
    traced_rate = _latency_metrics(traced)["ops_per_s"]
    values.update({k: v for k, v in plain_values.items() if k.startswith("serve.")})
    values.update(
        {
            "trace.ops_per_s_untraced": plain_values["ops_per_s"],
            "trace.ops_per_s_traced": traced_rate,
            "trace.overhead_ops_per_s": traced_rate - plain_values["ops_per_s"],
        }
    )
    outcome.exact = {key: values[key] for key in sorted(EXACT) if key in values}
    outcome.metrics.update(values)
    spans = BUILD / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    if traced.server.spans.exists():
        traced.server.spans.replace(spans / f"serve-mix-seed{args.seed}.json")
    else:
        outcome.errors.append("traced server wrote no spans")
