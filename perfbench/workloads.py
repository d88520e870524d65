"""The in-process workloads: private-fit and table1-grid.

A workload's ops come in *passes*: pass ``p`` holds the same mix of
ops as every other pass (same graphs and budgets), with seeds derived
from the workload seed and ``p``.  Pass 0 is the warm-up; passes
``1..timed_passes`` are the run's timed op set, which it runs again and
again, in the same order, until its window is over.  Fresh seeds per
pass average the seed-dependent work over the op set; repeating the
set lets each op's latency be read with the contention of a shared
host taken out (see ``inprocess.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro
from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.table1 import run_table1
from repro.stats.counts import matching_statistics

__all__ = [
    "Op",
    "InProcessWorkload",
    "WORKLOADS",
    "derive_seed",
    "prepare",
]

TABLE1_GRAPHS = ("ca-grqc", "ca-hepth", "as20", "synthetic-kronecker")
EPSILONS = (0.05, 0.2, 1.0)
DELTA = 0.01
TABLE1_JOBS = 2


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit op seed, a pure function of the workload seed and ``path``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass(frozen=True)
class Op:
    """One timed unit of work and the canonical view of its output."""

    label: str
    run: Callable[[], Any]
    summary: Callable[[Any], Any]


def _array_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _initiator(theta) -> list[float]:
    return [float(theta.a), float(theta.b), float(theta.c)]


# -- private-fit ------------------------------------------------------------


def _private_summary(estimate) -> dict:
    stats = estimate.release.statistics
    return {
        "initiator": _initiator(estimate.initiator),
        "k": estimate.k,
        "released": [
            float(stats.edges),
            float(stats.hairpins),
            float(stats.tripins),
            float(stats.triangles),
        ],
        "degrees": _array_digest(estimate.release.degree_release.degrees),
        "objective": float(estimate.moment_result.objective),
    }


def _private_ops(seed: int, pass_index: int, graphs: dict) -> list[Op]:
    ops = []
    for g, name in enumerate(TABLE1_GRAPHS):
        for e, epsilon in enumerate(EPSILONS):
            estimator = repro.PrivateKroneckerEstimator(
                epsilon=epsilon, delta=DELTA, seed=derive_seed(seed, 1, pass_index, g, e)
            )
            ops.append(
                Op(f"private:{name}:eps={epsilon}",
                   _fit(estimator, graphs[name]), _private_summary)
            )
    return ops


# -- table1-grid --------------------------------------------------------------


def _table1_summary(rows) -> list:
    return [[row.dataset, row.method, _initiator(row.initiator)] for row in rows]


def table1_config(grid_seed: int, n_jobs: int) -> ExperimentConfig:
    return ExperimentConfig(seed=grid_seed, n_jobs=n_jobs, cache_dir="")


def table1_seed(seed: int, pass_index: int) -> int:
    return derive_seed(seed, 3, pass_index)


def _table1_ops(seed: int, pass_index: int, graphs: dict) -> list[Op]:
    config = table1_config(table1_seed(seed, pass_index), TABLE1_JOBS)
    return [Op("table1:grid", lambda: run_table1(config=config), _table1_summary)]


def prepare(workload: str) -> dict:
    """What a user's process does before its first op can be issued.

    Loads the workload's graphs and runs their first A² pass.
    """
    graphs = {name: repro.load_dataset(name) for name in WORKLOADS[workload].datasets}
    for graph in graphs.values():
        matching_statistics(graph)
    return graphs


def _fit(estimator, graph):
    # Look ``fit`` up at call time, so a traced pass sees its wrapper.
    return lambda: estimator.fit(graph)


@dataclass(frozen=True)
class InProcessWorkload:
    datasets: tuple[str, ...]
    # (workload seed, pass index, graphs) -> the pass's ops
    make_ops: Callable[[int, int, dict], list[Op]]
    # Passes in the timed op set.  Sized so that one round over the set
    # takes about a third of the 26-s window on the 2-core reference
    # machine: every op is timed about three times, and the set holds
    # enough seeds that the seed-dependent work of fits varies little
    # between runs.
    timed_passes: int


WORKLOADS = {
    "private-fit": InProcessWorkload(TABLE1_GRAPHS, _private_ops, timed_passes=3),
    "table1-grid": InProcessWorkload(TABLE1_GRAPHS, _table1_ops, timed_passes=7),
}
