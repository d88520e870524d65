"""The benchmark's own tests: wrappers, digests, and the reported arithmetic.

Run with ``python -m pytest perfbench -q`` from the root of a checkout.
None of them runs a workload.
"""

import json
import math
import sys
import types
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import measure
from perfbench.common import ROOT, Outcome
from perfbench.metrics import EXACT, STRUCTURAL, delta, exact_view, layer_values
from perfbench.tracer import LAYER_TARGETS, Target, Tracer, _resolve_owner, installed_wrappers


# -- wrapper install / uninstall ----------------------------------------------


def test_install_wraps_every_target_and_uninstall_restores_them():
    originals = {}
    tracer = Tracer()
    for target in LAYER_TARGETS:
        owner = _resolve_owner(target.owner)
        originals[(target.owner, target.attr)] = owner.__dict__[target.attr]
    assert installed_wrappers(LAYER_TARGETS) == []
    with tracer:
        tracer.install(LAYER_TARGETS)
        assert len(installed_wrappers(LAYER_TARGETS)) == len(LAYER_TARGETS)
    assert installed_wrappers(LAYER_TARGETS) == []
    for target in LAYER_TARGETS:
        owner = _resolve_owner(target.owner)
        assert owner.__dict__[target.attr] is originals[(target.owner, target.attr)]


def test_failed_install_leaves_nothing_installed():
    tracer = Tracer()
    targets = LAYER_TARGETS[:3] + (Target("repro.kronecker.kronmom", "no_such_name", "x"),)
    with pytest.raises(KeyError):
        tracer.install(targets)
    assert installed_wrappers(LAYER_TARGETS) == []


def test_wrapped_kronmom_fit_is_counted_and_unchanged():
    from repro.kronecker import Initiator, KronMomEstimator
    from repro.stats.counts import MatchingStatistics

    observed = MatchingStatistics(edges=900.0, hairpins=9000.0, tripins=40000.0, triangles=60.0)
    estimator = KronMomEstimator(grid_points=5, n_refinements=1)
    plain = estimator.fit_statistics(observed, 10)
    tracer = Tracer()
    with tracer:
        tracer.install(LAYER_TARGETS)
        traced = estimator.fit_statistics(observed, 10)
    assert traced == plain
    assert isinstance(traced.initiator, Initiator)
    assert tracer.calls["kronmom.fit_statistics"] == 1
    assert tracer.calls["kronmom.minimize"] == 1
    assert tracer.calls["moments.efv"] == tracer.counts["kronmom.minimize.nfev"] + 1
    assert tracer.counts["kronmom.minimize.nit"] > 0


@pytest.fixture
def toy_module(monkeypatch):
    module = types.ModuleType("perfbench_toy")

    def inner(seconds):
        end = __import__("time").perf_counter() + seconds
        while __import__("time").perf_counter() < end:
            pass
        return seconds

    def outer():
        return module.inner(0.002) + module.inner(0.003)

    module.inner = inner
    module.outer = outer
    monkeypatch.setitem(sys.modules, "perfbench_toy", module)
    return module


def test_self_time_excludes_nested_spans(toy_module):
    tracer = Tracer()
    with tracer:
        tracer.install([Target("perfbench_toy", "outer", "outer"),
                        Target("perfbench_toy", "inner", "inner")])
        toy_module.outer()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_time["inner"] == pytest.approx(tracer.busy["inner"])
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.busy["outer"] - tracer.busy["inner"]
    )
    assert tracer.busy["inner"] >= 0.005
    spans = {span[1]: span for span in tracer.spans if span[1] == "outer"}
    parent_id = spans["outer"][0]
    assert [span[4] for span in tracer.spans if span[1] == "inner"] == [parent_id] * 2
    assert spans["outer"][4] == -1


def test_factory_targets_time_the_returned_callable(toy_module):
    toy_module.make = lambda: toy_module.inner
    tracer = Tracer()
    with tracer:
        tracer.install([Target("perfbench_toy", "make", "made", factory=True)])
        kernel = toy_module.make()
        kernel(0.0)
        kernel(0.0)
    assert tracer.calls == {"made": 2}
    assert installed_wrappers([Target("perfbench_toy", "make", "made")]) == []


def test_write_spans_is_compact_json(tmp_path, toy_module):
    tracer = Tracer()
    with tracer:
        tracer.install([Target("perfbench_toy", "outer", "outer"),
                        Target("perfbench_toy", "inner", "inner")])
        toy_module.outer()
    path = tmp_path / "spans.json"
    tracer.write_spans(path)
    written = json.loads(path.read_text())
    assert sorted(written["names"]) == ["inner", "outer"]
    assert len(written["spans"]) == 3
    assert written["columns"] == ["id", "name", "start_us", "duration_us", "parent"]


# -- digests --------------------------------------------------------------------


def test_digest_sees_the_last_bit_of_a_float():
    value = 0.1
    assert measure.digest([value]) != measure.digest([math.nextafter(value, 1.0)])
    assert measure.digest([value]) == measure.digest([0.1])


def test_digest_ignores_key_order_but_not_list_order():
    assert measure.digest({"a": 1.0, "b": [1, 2]}) == measure.digest({"b": [1, 2], "a": 1.0})
    assert measure.digest([1, 2]) != measure.digest([2, 1])


def test_digest_passes_bytes_through_and_rejects_unknown_types():
    assert measure.canonical_bytes(b'{"a": 1}') == b'{"a": 1}'
    assert measure.digest(b"abc") == measure.digest(b"abc")
    with pytest.raises(TypeError):
        measure.digest({"x": object()})


def test_a_wrong_first_output_fails_every_run_of_that_unit():
    outcome = Outcome(expected=["a", "b"])
    assert outcome.check_unit(0, "a", "op0")
    assert not outcome.check_unit(1, "x", "op1")
    assert not outcome.check_unit(1, "x", "op1")
    assert outcome.check_unit(0, "a", "op0")
    assert len(outcome.errors) == 1
    # Units past the expected list have nothing to compare with.
    assert outcome.check_unit(2, "c", "op2")
    assert outcome.unit_digests == ["a", "x", "c"]


def test_a_changed_or_failed_rerun_is_wrong():
    outcome = Outcome()
    assert outcome.check_unit(0, "a", "op0")
    assert not outcome.check_unit(0, "b", "op0")
    assert not outcome.check_unit(1, None, "op1")
    assert not outcome.check_unit(1, "c", "op1")
    assert len(outcome.errors) == 2


def test_golden_mismatch_lowers_ok_frac_and_throughput(monkeypatch):
    from perfbench import workloads
    from perfbench.inprocess import _Runner, latency_metrics
    from perfbench.run import result_metrics

    ops = [SimpleNamespace(label=f"op{i}", run=lambda i=i: i, summary=lambda v: v)
           for i in range(4)]
    right = [measure.digest(i) for i in range(4)]
    monkeypatch.setattr(
        workloads, "WORKLOADS",
        {"toy": SimpleNamespace(make_ops=lambda seed, pass_index, graphs: ops)},
    )
    args = SimpleNamespace(workload="toy", seed=0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rates = {}
    for name, expected in (("good", right), ("bad", right[:2] + ["0" * 16] + right[3:])):
        outcome = Outcome(expected=expected)
        latencies = {}
        runner = _Runner(args, {}, outcome)
        runner.run_pass(0, latencies)
        runner.run_pass(0, latencies)
        assert (outcome.attempted, outcome.failed) == (8, 0 if name == "good" else 2)
        metrics = latency_metrics(latencies, outcome.wrong_units)
        # Equal latencies for both runs, so only the right-op count differs.
        latencies = {unit: [1.0] for unit in latencies}
        rates[name] = latency_metrics(latencies, outcome.wrong_units)["ops_per_s"]
        outcome.metrics.update(metrics, setup_s=1.0, peak_rss_mb=1.0)
        printed = result_metrics(spec, False, outcome)
        assert printed["ok_frac"]["value"] == (1.0 if name == "good" else 0.75)
        assert len(outcome.errors) == (0 if name == "good" else 1)
    assert rates == {"good": 1.0, "bad": 0.75}


def test_earlier_run_records_catch_changed_counts_and_supply_digests(monkeypatch, tmp_path):
    from perfbench import run

    monkeypatch.setattr(run, "BUILD", tmp_path)
    args = SimpleNamespace(workload="private-fit", seed=3)
    assert run.expected_digests(args) is None
    first = Outcome(unit_digests=["a", "b"], exact={"moments.efv.calls": 10})
    run.check_against_earlier_runs(args, first)
    assert first.errors == []
    assert run.expected_digests(args) == ["a", "b"]
    same = Outcome(unit_digests=["a", "b"], exact={"moments.efv.calls": 10})
    run.check_against_earlier_runs(args, same)
    assert same.errors == []
    changed = Outcome(unit_digests=["a", "b"], exact={"moments.efv.calls": 11})
    run.check_against_earlier_runs(args, changed)
    assert len(changed.errors) == 1 and changed.errors[0].startswith("NONDETERMINISM")


def test_default_seed_expects_the_committed_digests(monkeypatch, tmp_path):
    from perfbench import run

    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"private-fit": ["a", "b"]}))
    monkeypatch.setattr(run, "GOLDEN", golden)
    args = SimpleNamespace(workload="private-fit", seed=run.DEFAULT_SEED)
    assert run.expected_digests(args) == ["a", "b"]


# -- percentile and failure arithmetic ---------------------------------------------


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = list(np.random.default_rng(4).exponential(size=37))
    assert measure.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_edges():
    assert measure.percentile([3.0], 90) == 3.0
    assert measure.percentile([1.0, 2.0], 50) == 1.5
    assert measure.percentile([5, 1, 3], 50) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_host_clock_scales_wall_time_by_the_yardstick(monkeypatch):
    # Yardstick runs of twice the reference time mean a host at half speed.
    ticks = iter([0.0, 2.0, 2.0, 3.0, 3.0, 5.0])
    monkeypatch.setattr(measure, "REFERENCE_SECONDS", 1.0)
    monkeypatch.setattr(measure, "reference_work", lambda: None)
    monkeypatch.setattr(measure, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    clock = measure.HostClock()
    assert clock.time(lambda: "done") == ("done", 1.0, 0.5)
    assert clock.reference_seconds == 4.0


def test_failed_frac():
    assert measure.failed_frac(10, 0) == 0.0
    assert measure.failed_frac(12, 3) == 0.25
    with pytest.raises(ValueError):
        measure.failed_frac(0, 0)
    with pytest.raises(ValueError):
        measure.failed_frac(4, 5)


# -- layer arithmetic ----------------------------------------------------------------


def _snapshot(calls=None, busy=None, self_time=None, counts=None):
    return {"calls": calls or {}, "busy": busy or {}, "self": self_time or {},
            "counts": counts or {}}


def test_layer_values_take_counts_from_the_first_pass_and_average_times():
    first = _snapshot({"moments.efv": 100}, {"moments.efv": 1.0},
                      counts={"kronmom.minimize.nit": 40, "kronfit.fits": 2,
                              "kronfit.acceptance_sum": 0.5})
    second = _snapshot({"moments.efv": 100}, {"moments.efv": 3.0},
                       counts={"kronmom.minimize.nit": 40, "kronfit.fits": 2,
                               "kronfit.acceptance_sum": 0.7})
    total = {section: {key: first[section].get(key, 0) + second[section].get(key, 0)
                       for key in set(first[section]) | set(second[section])}
             for section in first}
    values = layer_values(first, total, 2)
    assert values["moments.efv.calls"] == 100
    assert values["moments.efv.busy_s"] == 2.0
    assert values["kronmom.minimize.nit"] == 40
    assert values["likelihood.accept_ratio"] == pytest.approx(0.3)
    assert values["likelihood.run.calls"] == 0


def test_delta_subtracts_per_key():
    after = _snapshot({"a": 5}, {"a": 2.5}, counts={"n": 7})
    before = _snapshot({"a": 2}, {"a": 1.0})
    assert delta(after, before) == _snapshot({"a": 3}, {"a": 1.5}, counts={"n": 7})


# -- declarations ------------------------------------------------------------------

# Per-layer metrics a workload runner adds beyond the span and count groups.
_RUNNER_LAYER_METRICS = {
    "failed_frac",
    "runtime.parallel_efficiency",
    "serve.hit_p50_ms",
    "serve.sample_p50_ms",
    "serve.fit_p50_ms",
    "serve.release_p50_ms",
    "serve.graphs_per_s",
    "trace.ops_per_s_untraced",
    "trace.ops_per_s_traced",
    "trace.overhead_ops_per_s",
}


def test_every_declared_per_layer_metric_is_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    empty = _snapshot(counts={name: 0 for name in STRUCTURAL if name.startswith("serve.")})
    produced = set(layer_values(empty, empty, 1)) | set(exact_view(empty))
    declared = [metric["name"] for metric in spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert set(declared) == produced | _RUNNER_LAYER_METRICS
    assert EXACT <= produced and STRUCTURAL <= EXACT


def test_golden_covers_every_unit_a_run_may_make():
    from perfbench.serve_mix import BLOCKS_PER_PASS, MAX_PASSES
    from perfbench.workloads import WORKLOADS

    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(golden) == {workload["name"] for workload in spec["workloads"]}
    assert len(golden["private-fit"]) == 12 * (1 + WORKLOADS["private-fit"].timed_passes)
    assert len(golden["table1-grid"]) == 1 + WORKLOADS["table1-grid"].timed_passes
    assert len(golden["serve-mix"]) == MAX_PASSES * BLOCKS_PER_PASS


# -- the serve-mix plan --------------------------------------------------------------


def test_serve_plan_is_a_pure_function_of_seed_and_pass():
    from perfbench.serve_mix import plan_pass

    assert plan_pass(5, 3) == plan_pass(5, 3)
    assert plan_pass(5, 3) != plan_pass(6, 3)
    assert plan_pass(5, 3) != plan_pass(5, 4)


def test_serve_plan_mix_and_hit_references():
    from perfbench.serve_mix import BLOCKS_PER_PASS, DATASETS, plan_pass

    first, second = plan_pass(0, 2)
    requests = first + second
    assert len(requests) == 8 * BLOCKS_PER_PASS
    kinds = [request.kind for request in requests]
    assert kinds.count("hit") * 8 == len(requests) * 5
    for client in (first, second):
        for index, request in enumerate(client):
            assert request.block == index // (len(client) // BLOCKS_PER_PASS)
            if request.kind == "hit":
                original = client[request.repeats]
                assert request.repeats < index
                assert original.kind != "hit"
                assert (original.path, original.body) == (request.path, request.body)
    released = sorted(r.body["dataset"] for r in second if r.kind == "release")
    assert released == sorted(DATASETS) and len(released) == BLOCKS_PER_PASS
    seeds = [r.body["seed"] for r in requests if r.kind in ("fit", "release")]
    assert len(set(seeds)) == len(seeds)


def test_serve_budget_exactly_covers_the_planned_releases():
    from perfbench.serve_mix import MAX_PASSES, RELEASE_DELTA, RELEASE_EPSILON, plan_pass

    per_dataset = {}
    for pass_index in range(MAX_PASSES):
        for request in plan_pass(1, pass_index)[1]:
            if request.kind == "release":
                dataset = request.body["dataset"]
                per_dataset[dataset] = per_dataset.get(dataset, 0) + 1
    assert set(per_dataset.values()) == {MAX_PASSES}
    # Dyadic charges: any summation order gives the exact budget.
    assert math.fsum([RELEASE_EPSILON] * MAX_PASSES) == MAX_PASSES * RELEASE_EPSILON
    assert sum([RELEASE_DELTA] * MAX_PASSES) == MAX_PASSES * RELEASE_DELTA
