#!/usr/bin/env python3
"""End-to-end benchmark of the paper's pipeline, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload private-fit --seed 0 --seconds 26 --trace 0

``BENCHMARK.json`` at the root of the checkout declares the workloads,
the metrics with their units, and the default ``--seconds``
(``run_seconds``); ``perfbench/README.md`` says why each workload exists
and which layer metric should move which end-to-end metric.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run plus its tracing overhead.  The last
line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.

The program is built from ``src/`` of the same checkout; its compiled
kernels are cached under ``.bench_build/`` there, and nothing outside
the checkout is written.  ``--record-golden`` rewrites
``perfbench/golden.json`` for the workload from the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import BUILD, Outcome  # noqa: E402
from perfbench.measure import failed_frac  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 0


def prepare_environment() -> None:
    """Pin every knob the program reads; keep all writes in the checkout."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(ROOT / ".bench_build" / "cache")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # One BLAS thread per process.  The ops' matrices are small, so a
    # second thread buys nothing, and on a 2-core host shared with other
    # tenants its spin-waits made repeats of one fit differ by up to 2x.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def src_fingerprint() -> str:
    """Hash of the program's and the benchmark's sources.

    Records of earlier runs are only compared under the same hash.
    """
    digest = hashlib.sha256()
    paths = sorted((ROOT / "src").rglob("*")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def record_path(args) -> Path:
    return BUILD / "records" / f"{args.workload}-seed{args.seed}-{src_fingerprint()}.json"


def expected_digests(args) -> list | None:
    """The digests this run's units must reproduce, if any are known.

    For the default seed they are the committed ones in ``golden.json``;
    for any other seed, those of an earlier run of the same seed on the
    same sources.
    """
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        return golden.get(args.workload, [])
    path = record_path(args)
    return json.loads(path.read_text()).get("digests") if path.exists() else None


def check_against_earlier_runs(args, outcome: Outcome) -> None:
    """Fail loudly if this seed's exact counts changed between runs.

    Also stores this run's digests and exact counts for later runs.
    """
    path = record_path(args)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = json.loads(path.read_text()) if path.exists() else {}
    if outcome.exact is not None and "exact" in record and record["exact"] != outcome.exact:
        changed = sorted(
            key for key in outcome.exact if outcome.exact[key] != record["exact"].get(key)
        )
        outcome.errors.append(
            f"NONDETERMINISM: exact counts changed from an earlier run of this seed: {changed}"
        )
    if len(outcome.unit_digests) > len(record.get("digests", [])):
        record["digests"] = outcome.unit_digests
    if outcome.exact is not None:
        record.setdefault("exact", outcome.exact)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    tmp.replace(path)


def result_metrics(spec: dict, trace: bool, outcome: Outcome) -> dict:
    """The declared metrics of this kind of run, by name with their units.

    Every end-to-end metric must have been measured.  A per-layer metric
    of a layer the workload does not reach reads 0.
    """
    share = failed_frac(outcome.attempted, outcome.failed)
    outcome.metrics.update(ok_frac=1.0 - share, failed_frac=share)
    metrics = {}
    for declared in spec["per_layer" if trace else "end_to_end"]:
        name = declared["name"]
        if name in outcome.metrics:
            value = outcome.metrics[name]
        elif trace:
            value = 0.0
        else:
            outcome.errors.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": declared["unit"]}
    return metrics


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, spec)
    if args.record_golden:
        args.seed, args.trace = DEFAULT_SEED, 0
    prepare_environment()
    if args.workload == "serve-mix":
        from perfbench.serve_mix import run_serve_mix as run_workload
    else:
        from perfbench.inprocess import run_inprocess as run_workload

    outcome = Outcome(expected=None if args.record_golden else expected_digests(args))
    run_workload(args, outcome)
    if args.record_golden:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[args.workload] = outcome.unit_digests
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(outcome.unit_digests)} digests", file=sys.stderr)
        return 0
    if args.seed == DEFAULT_SEED and len(outcome.unit_digests) > len(outcome.expected):
        outcome.errors.append(
            f"{len(outcome.unit_digests)} units ran but only "
            f"{len(outcome.expected)} have committed digests"
        )
    check_against_earlier_runs(args, outcome)
    metrics = result_metrics(spec, args.trace, outcome)
    for error in outcome.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    correct = not outcome.errors and outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
