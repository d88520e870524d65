"""Block-parallel counting passes through the runtime pool.

:func:`repro.stats.kernels.triangle_pass` fans contiguous groups of row
blocks across the :mod:`repro.runtime` process pool when asked
(``n_jobs > 1``).  The contract mirrors the trial engine's: results are
**bit-identical at any worker count**, because the reduction is positional
(per-node slices written back by row range, maxima folded in group order)
and every accumulator is integer-exact.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.runtime
from repro.errors import ValidationError
from repro.graphs.generators import erdos_renyi_graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import sample_skg
from repro.native.counting import COUNTING_KERNEL
from repro.stats.kernels import (
    reference_count_triangles,
    reference_max_common_neighbors,
    reference_triangles_per_node,
    triangle_pass,
)


def assert_results_identical(first, second):
    assert first.triangles == second.triangles
    assert first.max_common_neighbors == second.max_common_neighbors
    assert first.n_blocks == second.n_blocks
    assert first.wedges == second.wedges
    assert first.tripins == second.tripins
    np.testing.assert_array_equal(
        np.asarray(first.per_node), np.asarray(second.per_node)
    )


class TestParallelTrianglePass:
    def test_bit_identical_at_n_jobs_1_and_4(self):
        graph = sample_skg(Initiator(0.99, 0.45, 0.25), 10, seed=17)
        serial = triangle_pass(graph, block_size=64, n_jobs=1)
        fanned = triangle_pass(graph, block_size=64, n_jobs=4)
        assert serial.n_blocks > 1  # the fan-out actually had blocks to fan
        assert_results_identical(serial, fanned)

    def test_parallel_matches_references_on_every_backend(self):
        graph = erdos_renyi_graph(240, 0.06, seed=23)
        expected = (
            reference_count_triangles(graph),
            reference_max_common_neighbors(graph),
            reference_triangles_per_node(graph),
        )
        for backend in COUNTING_KERNEL.engines():
            result = triangle_pass(graph, block_size=48, backend=backend, n_jobs=4)
            assert result.triangles == expected[0]
            assert result.max_common_neighbors == expected[1]
            np.testing.assert_array_equal(np.asarray(result.per_node), expected[2])

    def test_single_block_never_touches_the_pool(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("pool must not be used for a single block")

        monkeypatch.setattr(repro.runtime, "run_trials", boom)
        graph = erdos_renyi_graph(60, 0.1, seed=3)  # auto-tunes to one block
        result = triangle_pass(graph, n_jobs=4)
        assert result.n_blocks == 1
        assert result.triangles == reference_count_triangles(graph)

    def test_all_cores_request_resolves(self):
        graph = erdos_renyi_graph(80, 0.1, seed=4)
        result = triangle_pass(graph, block_size=40, n_jobs=0)  # 0 = all cores
        assert result.triangles == reference_count_triangles(graph)

    def test_invalid_n_jobs_rejected(self):
        graph = erdos_renyi_graph(20, 0.2, seed=5)
        with pytest.raises(ValidationError):
            triangle_pass(graph, n_jobs=2.5)
