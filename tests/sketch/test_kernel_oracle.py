"""Bitwise oracles for the RR-set kernel and the pool's inverted index.

The reference versions below are the plain formulations that the code
in :mod:`repro.sketch.rrsets` optimises: a reverse cascade that builds a
per-edge sketch array and deduplicates with ``np.unique``, and an
inverted index built by stable-argsorting the flattened members.  The
library must reproduce them bit for bit, RNG stream included, so the
optimisation can never move a pool, a seed set or a marginal gain.
"""

import numpy as np
import pytest

from repro.apps.influence_max import ris_influence_maximization
from repro.data.graph import SocialGraph
from repro.data.synthetic import SyntheticSocialDataset
from repro.diffusion.probabilities import EdgeProbabilities
from repro.sketch.rrsets import (
    RRGenerator,
    RRSketchPool,
    reverse_edge_probabilities,
)


def reference_cascade_batch(arrays, num_nodes, roots, rng):
    """Lockstep reverse IC cascades for one batch (per-edge formulation)."""
    in_indptr, in_indices, in_values = arrays
    n = num_nodes
    batch = roots.shape[0]
    visited = np.zeros((batch, n), dtype=bool)
    rows = np.arange(batch, dtype=np.int64)
    visited[rows, roots] = True
    member_sketches, member_nodes = [rows], [roots]
    frontier_sketches, frontier_nodes = rows, roots
    while frontier_nodes.size:
        starts = in_indptr[frontier_nodes]
        degrees = in_indptr[frontier_nodes + 1] - starts
        total = int(degrees.sum())
        if total == 0:
            break
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(degrees) - degrees, degrees
        )
        flat = np.repeat(starts, degrees) + within
        edge_sketches = np.repeat(frontier_sketches, degrees)
        live = rng.random(total) < in_values[flat]
        if not live.any():
            break
        hit_sketches = edge_sketches[live]
        hit_sources = in_indices[flat[live]]
        fresh = ~visited[hit_sketches, hit_sources]
        if not fresh.any():
            break
        packed = np.unique(hit_sketches[fresh] * n + hit_sources[fresh])
        new_sketches, new_nodes = packed // n, packed % n
        visited[new_sketches, new_nodes] = True
        member_sketches.append(new_sketches)
        member_nodes.append(new_nodes)
        frontier_sketches, frontier_nodes = new_sketches, new_nodes
    all_sketches = np.concatenate(member_sketches)
    order = np.argsort(all_sketches, kind="stable")
    return (
        np.bincount(all_sketches, minlength=batch),
        np.concatenate(member_nodes)[order],
    )


def reference_generate(probabilities, count, seed, batch_size):
    """``RRGenerator(probabilities, seed, batch_size).generate(count)``."""
    arrays = reverse_edge_probabilities(probabilities)
    n = probabilities.graph.num_nodes
    rng = np.random.default_rng(seed)
    sizes, nodes = [], []
    for start in range(0, count, batch_size):
        roots = rng.integers(
            0, n, size=min(batch_size, count - start), dtype=np.int64
        )
        batch_sizes, batch_nodes = reference_cascade_batch(arrays, n, roots, rng)
        sizes.append(batch_sizes)
        nodes.append(batch_nodes)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(sizes))])
    return indptr.astype(np.int64), np.concatenate(nodes)


def reference_inverted(pool):
    """The node→sketches CSR by stable argsort of the flattened members."""
    sketch_ids = np.repeat(
        np.arange(pool.num_sketches, dtype=np.int64), pool.sizes()
    )
    order = np.argsort(pool.nodes, kind="stable")
    counts = np.bincount(pool.nodes, minlength=pool.num_nodes)
    return np.concatenate([[0], np.cumsum(counts)]), sketch_ids[order]


def _with_certain_and_impossible_edges(graph, values):
    """Pin every 5th edge to p = 0 and every 7th to p = 1."""
    values = np.array(values, dtype=np.float64)
    values[::5] = 0.0
    values[3::7] = 1.0
    return EdgeProbabilities(graph, values)


def _planted_graph():
    return SyntheticSocialDataset.digg_like(
        num_users=120, num_items=20, seed=5
    ).planted.edge_probabilities


def subcritical():
    planted = _planted_graph()
    return _with_certain_and_impossible_edges(planted.graph, planted.values)


def supercritical():
    planted = _planted_graph()
    rng = np.random.default_rng(9)
    values = rng.uniform(0.0, 0.6, size=planted.graph.num_edges)
    return _with_certain_and_impossible_edges(planted.graph, values)


def with_sources_and_isolates():
    """A DAG whose node 0 and nodes 34..39 have no in-edges at all."""
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 34, size=(160, 2))
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    graph = SocialGraph(40, pairs)
    values = rng.uniform(0.2, 0.9, size=graph.num_edges)
    return _with_certain_and_impossible_edges(graph, values)


TABLES = {
    "subcritical": subcritical,
    "supercritical": supercritical,
    "zero-in-degree": with_sources_and_isolates,
}


@pytest.fixture(params=sorted(TABLES))
def table(request) -> EdgeProbabilities:
    return TABLES[request.param]()


class TestReverseCascadeOracle:
    def test_tables_cover_the_edge_cases(self):
        sources = with_sources_and_isolates()
        in_indptr, _, _ = reverse_edge_probabilities(sources)
        assert np.any(np.diff(in_indptr) == 0)
        for make in TABLES.values():
            values = make().values
            assert np.any(values == 0.0) and np.any(values == 1.0)
        sizes = np.diff(RRGenerator(supercritical(), seed=0).generate(64)[0])
        assert sizes.mean() > 0.5 * supercritical().graph.num_nodes

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generate_matches_reference(self, table, batch_size, seed):
        count = 300
        got = RRGenerator(table, seed=seed, batch_size=batch_size).generate(count)
        want = reference_generate(table, count, seed, batch_size)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_chunked_generate_matches_reference(self, table, batch_size):
        first = 2 * batch_size
        generator = RRGenerator(table, seed=3, batch_size=batch_size)
        pool = RRSketchPool(table.graph.num_nodes, *generator.generate(first))
        pool = pool.extended(*generator.generate(150))
        want = reference_generate(table, first + 150, 3, batch_size)
        np.testing.assert_array_equal(pool.indptr, want[0])
        np.testing.assert_array_equal(pool.nodes, want[1])


def _assert_inverted_matches_reference(pool):
    got_indptr, got_sketches = pool._inverted()
    want_indptr, want_sketches = reference_inverted(pool)
    np.testing.assert_array_equal(got_indptr, want_indptr)
    np.testing.assert_array_equal(got_sketches, want_sketches)
    assert got_indptr.dtype == np.int64 and got_sketches.dtype == np.int64
    for node in range(pool.num_nodes):
        np.testing.assert_array_equal(
            pool.sketches_containing(node),
            want_sketches[want_indptr[node] : want_indptr[node + 1]],
        )


class TestInvertedIndexOracle:
    def test_pool_with_empty_posting_lists(self):
        # Nodes 3 and 5 lie in no sketch; sketch 2 is empty.
        pool = RRSketchPool(
            6,
            np.array([0, 3, 4, 4, 7, 8]),
            np.array([0, 4, 1, 2, 1, 0, 4, 2]),
        )
        _assert_inverted_matches_reference(pool)
        assert pool.sketches_containing(3).size == 0
        assert pool.sketches_containing(5).size == 0

    def test_empty_pool(self):
        pool = RRSketchPool.empty(4)
        _assert_inverted_matches_reference(pool)
        np.testing.assert_array_equal(pool._inverted()[0], np.zeros(5))

    def test_extended_pool(self, table):
        generator = RRGenerator(table, seed=8, batch_size=16)
        pool = RRSketchPool(table.graph.num_nodes, *generator.generate(40))
        pool.sketches_containing(0)  # cache the index on the parent pool
        extended = pool.extended(*generator.generate(25))
        _assert_inverted_matches_reference(pool)
        _assert_inverted_matches_reference(extended)


def test_ris_selection_matches_reference_kernels(monkeypatch):
    """Seeds and marginal gains are unchanged by the optimised kernels."""
    probabilities = supercritical()
    optimised = ris_influence_maximization(probabilities, 5, seed=21)

    def reference_kernel(self, roots):
        arrays = (self._in_indptr, self._in_indices, self._in_values)
        return reference_cascade_batch(arrays, self.num_nodes, roots, self.rng)

    def reference_index(pool):
        if pool._node_indptr is None:
            pool._node_indptr, pool._node_sketches = reference_inverted(pool)
        return pool._node_indptr, pool._node_sketches

    monkeypatch.setattr(RRGenerator, "_reverse_cascade_batch", reference_kernel)
    monkeypatch.setattr(RRSketchPool, "_inverted", reference_index)
    reference = ris_influence_maximization(probabilities, 5, seed=21)
    assert optimised.seeds == reference.seeds
    assert optimised.marginal_gains == reference.marginal_gains
    assert optimised.expected_spread == reference.expected_spread
