"""Reverse-reachable (RR) set generation over the propagation network.

The RIS insight (Borgs et al.; Tang et al.) is that influence spread
has an unbiased *reverse* estimator: sample a uniform root ``v``, run
an Independent-Cascade simulation **backwards** over the transposed
graph (each in-edge ``u -> v`` is live with its forward probability
``P_uv``), and record every node that reaches ``v`` through live
edges.  The probability that a seed set ``S`` intersects such a random
RR set equals ``sigma(S) / n``, so a pool of RR sets turns influence
maximisation into max-coverage over the pool — no forward Monte-Carlo
per candidate ever runs.

:class:`RRGenerator` samples RR sets in vectorised batches: every
frontier node's in-edges across the whole batch are gathered from the
transposed CSR adjacency with one fancy-indexing pass, all coin flips
come from one seeded :class:`numpy.random.Generator` draw, and the
per-batch visited matrix is a reusable buffer.  :class:`RRSketchPool`
stores the resulting sets in flattened CSR form plus the inverted
node→sketch index that max-coverage selection consumes.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import SketchError
from repro.obs.metrics import SPREAD_BUCKETS
from repro.obs.run import active_metrics, active_run
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["RRGenerator", "RRSketchPool", "reverse_edge_probabilities"]

#: Roots processed per lockstep reverse-cascade batch.
DEFAULT_BATCH_SIZE = 256


def reverse_edge_probabilities(
    probabilities: EdgeProbabilities,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transposed CSR adjacency with aligned forward probabilities.

    Returns ``(in_indptr, in_indices, in_values)`` where
    ``in_indices[in_indptr[v]:in_indptr[v+1]]`` are the in-neighbours
    ``u`` of ``v`` and ``in_values`` carries the *forward* ``P_uv`` for
    each — exactly the arrays a reverse IC cascade expands.  The graph
    already stores the transposed CSR; only the probability table needs
    reordering from source-major to target-major edge order.
    """
    graph = probabilities.graph
    in_indptr, in_indices = graph.in_csr()
    edge_array = graph.edge_array()
    # Source-major canonical order -> (target, source) order, matching
    # the stable-sorted in-CSR layout built by SocialGraph.
    order = np.lexsort((edge_array[:, 0], edge_array[:, 1]))
    return in_indptr, in_indices, probabilities.values[order]


def _record_generation(num_sets: int, sizes: np.ndarray) -> None:
    """Record one RR-generation call into the ambient metrics registry.

    No-op (one attribute check) unless a :func:`repro.obs.run.recording`
    scope is active — the adaptive schedule calls this per extension,
    so everything heavier stays behind the enabled guard.
    """
    metrics = active_metrics()
    if not metrics.enabled:
        return
    metrics.counter("sketch.rr_sets", "reverse-reachable sets sampled").inc(
        num_sets
    )
    metrics.counter(
        "sketch.rr_nodes", "total nodes across sampled RR sets"
    ).inc(int(sizes.sum()))
    metrics.histogram(
        "sketch.rr_size", SPREAD_BUCKETS, "RR-set sizes"
    ).observe_many(sizes.tolist())


class RRSketchPool:
    """A pool of RR sets in flattened CSR form.

    Parameters
    ----------
    num_nodes:
        Node-universe size the sketches were sampled over.
    indptr:
        ``(num_sketches + 1,)`` offsets into ``nodes``; sketch ``i``
        is ``nodes[indptr[i]:indptr[i + 1]]``.
    nodes:
        All sketch members flattened, grouped per sketch in reverse
        activation order (the sampled root first).
    """

    def __init__(self, num_nodes: int, indptr: np.ndarray, nodes: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=np.int64)
        if indptr.ndim != 1 or indptr.shape[0] < 1 or indptr[0] != 0:
            raise SketchError(
                f"indptr must be 1-D starting at 0, got shape {indptr.shape}"
            )
        if np.any(np.diff(indptr) < 0) or int(indptr[-1]) != nodes.shape[0]:
            raise SketchError(
                f"indptr (last={int(indptr[-1])}) disagrees with "
                f"{nodes.shape[0]} flattened nodes"
            )
        if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
            raise SketchError(
                f"sketch members must lie in [0, {num_nodes}), found range "
                f"[{nodes.min()}, {nodes.max()}]"
            )
        self.num_nodes = int(num_nodes)
        self.indptr = indptr
        self.nodes = nodes
        self._node_indptr: np.ndarray | None = None
        self._node_sketches: np.ndarray | None = None

    @property
    def num_sketches(self) -> int:
        """Number of RR sets in the pool."""
        return int(self.indptr.shape[0] - 1)

    def sizes(self) -> np.ndarray:
        """Size of every RR set as an int64 array."""
        return np.diff(self.indptr)

    def sketch(self, i: int) -> np.ndarray:
        """Members of sketch ``i`` (read-only view)."""
        i = int(i)
        if not 0 <= i < self.num_sketches:
            raise SketchError(f"sketch {i} outside [0, {self.num_sketches})")
        return self.nodes[self.indptr[i] : self.indptr[i + 1]]

    def coverage_counts(self) -> np.ndarray:
        """Per-node count of RR sets containing the node.

        ``coverage_counts()[u] * num_nodes / num_sketches`` is the
        unbiased RIS estimate of ``sigma({u})``.
        """
        return np.bincount(self.nodes, minlength=self.num_nodes)

    def _inverted(self) -> tuple[np.ndarray, np.ndarray]:
        """The node→sketches CSR, built lazily and cached.

        Each node's sketch ids come out ascending.  The sketch×node CSR
        transpose is a counting sort, O(P + num_nodes) for P members,
        where an argsort of ``nodes`` would cost O(P log P).
        """
        if self._node_indptr is None:
            membership = sparse.csr_array(
                (np.ones(self.nodes.shape[0], dtype=bool), self.nodes, self.indptr),
                shape=(self.num_sketches, self.num_nodes),
            ).tocsc()
            self._node_indptr = membership.indptr.astype(np.int64, copy=False)
            self._node_sketches = membership.indices.astype(np.int64, copy=False)
        return self._node_indptr, self._node_sketches

    def sketches_containing(self, node: int) -> np.ndarray:
        """IDs of the RR sets containing ``node`` (read-only view)."""
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise SketchError(f"node {node} outside [0, {self.num_nodes})")
        node_indptr, node_sketches = self._inverted()
        return node_sketches[node_indptr[node] : node_indptr[node + 1]]

    def spread_estimate(self, seeds) -> float:
        """Unbiased RIS estimate of ``sigma(seeds)`` for a *fixed* set.

        Counts the sketches intersecting ``seeds`` through the inverted
        index and scales by ``num_nodes / num_sketches``.  Unbiased for
        any seed set chosen independently of this pool; the coverage of
        a set *selected on* the pool is upward-biased by the selection
        itself (the IMM guarantee bounds that bias by ``epsilon``).
        """
        if self.num_sketches == 0:
            raise SketchError("spread estimate is undefined for an empty pool")
        covering = [self.sketches_containing(int(s)) for s in seeds]
        covered = np.unique(np.concatenate(covering)) if covering else []
        return self.num_nodes * len(covered) / self.num_sketches

    def spread_scale(self) -> float:
        """Sketches-to-spread conversion factor ``num_nodes / num_sketches``.

        Multiply a covered-sketch count by this to get the RIS spread
        estimate in users.
        """
        if self.num_sketches == 0:
            raise SketchError("spread scale is undefined for an empty pool")
        return self.num_nodes / self.num_sketches

    def extended(self, indptr: np.ndarray, nodes: np.ndarray) -> "RRSketchPool":
        """A new pool with additional sketches appended.

        ``indptr``/``nodes`` describe the new sketches alone, in the
        same flattened layout this pool uses; the inverted index is
        rebuilt lazily on the returned pool.
        """
        merged_indptr = np.concatenate(
            [self.indptr, np.asarray(indptr[1:], dtype=np.int64) + self.indptr[-1]]
        )
        merged_nodes = np.concatenate([self.nodes, nodes])
        return RRSketchPool(self.num_nodes, merged_indptr, merged_nodes)

    @classmethod
    def empty(cls, num_nodes: int) -> "RRSketchPool":
        """A pool of zero sketches over ``num_nodes`` nodes."""
        return cls(
            num_nodes, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
        )

    def __repr__(self) -> str:
        return (
            f"RRSketchPool(num_nodes={self.num_nodes}, "
            f"num_sketches={self.num_sketches}, "
            f"total_size={self.nodes.shape[0]})"
        )


class RRGenerator:
    """Stateful vectorised sampler of RR sets for one probability table.

    One generator owns one seeded RNG stream, so successive
    :meth:`generate` calls extend the same deterministic sequence —
    exactly what the adaptive schedule needs when it grows the pool in
    phases.

    Parameters
    ----------
    probabilities:
        Forward IC edge probabilities over the social graph.
    seed:
        Seed or :class:`~numpy.random.Generator` for root sampling and
        edge coin flips.
    batch_size:
        Roots simulated per lockstep reverse-cascade batch; bounds the
        reusable visited buffer at ``batch_size × num_nodes`` bools.
    """

    def __init__(
        self,
        probabilities: EdgeProbabilities,
        seed: SeedLike = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        self.num_nodes = probabilities.graph.num_nodes
        if self.num_nodes == 0:
            raise SketchError("cannot sample RR sets over an empty graph")
        self.batch_size = check_positive_int("batch_size", batch_size)
        self.rng = ensure_rng(seed)
        (
            self._in_indptr,
            self._in_indices,
            self._in_values,
        ) = reverse_edge_probabilities(probabilities)
        # Reusable per-batch visited buffer (allocated on first use).
        self._visited: np.ndarray | None = None

    def generate(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``count`` fresh RR sets with uniformly random roots.

        Returns ``(indptr, nodes)`` in the flattened
        :class:`RRSketchPool` layout, covering only the new sketches.
        """
        count = check_positive_int("count", count)
        with active_run().span("sketch.generate", count=count):
            sizes_parts: list[np.ndarray] = []
            nodes_parts: list[np.ndarray] = []
            for start in range(0, count, self.batch_size):
                roots = self.rng.integers(
                    0,
                    self.num_nodes,
                    size=min(self.batch_size, count - start),
                    dtype=np.int64,
                )
                sizes, nodes = self._reverse_cascade_batch(roots)
                sizes_parts.append(sizes)
                nodes_parts.append(nodes)
            all_sizes = np.concatenate(sizes_parts)
            indptr = np.empty(count + 1, dtype=np.int64)
            indptr[0] = 0
            np.cumsum(all_sizes, out=indptr[1:])
            _record_generation(count, all_sizes)
            return indptr, np.concatenate(nodes_parts)

    def _reverse_cascade_batch(
        self, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lockstep reverse IC cascades for one batch of roots.

        All sketches advance one round per iteration: the in-edges of
        every frontier entry across the batch are gathered in frontier
        order and one RNG draw covers every coin.  Only the live edges
        are mapped back to their sketch (a ``searchsorted`` over the
        frontier's edge offsets), and the newly reached ``(sketch,
        node)`` pairs, packed as ``sketch * n + node``, are deduplicated
        by sorting before becoming the next frontier.
        """
        batch = roots.shape[0]
        n = self.num_nodes
        if self._visited is None or self._visited.shape[0] < batch:
            self._visited = np.zeros((batch, n), dtype=bool)
        visited = self._visited[:batch].reshape(-1)
        visited[:] = False
        rows = np.arange(batch, dtype=np.int64)
        visited[rows * n + roots] = True

        member_sketches = [rows]
        member_nodes = [roots]
        frontier_sketches, frontier_nodes = rows, roots
        while frontier_nodes.size:
            starts = self._in_indptr[frontier_nodes]
            degrees = self._in_indptr[frontier_nodes + 1] - starts
            ends = np.cumsum(degrees)
            total = int(ends[-1])
            if total == 0:
                break
            # Flat index of every frontier in-edge, in frontier order.
            flat = np.repeat(starts - (ends - degrees), degrees)
            flat += np.arange(total, dtype=np.int64)
            live = np.flatnonzero(self.rng.random(total) < self._in_values[flat])
            if live.size == 0:
                break
            keys = frontier_sketches[np.searchsorted(ends, live, side="right")]
            keys *= n
            keys += self._in_indices[flat[live]]
            keys = keys[~visited[keys]]
            if keys.size == 0:
                break
            keys.sort()
            distinct = np.empty(keys.shape[0], dtype=bool)
            distinct[0] = True
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            keys = keys[distinct]
            visited[keys] = True
            frontier_sketches = keys // n
            frontier_nodes = keys - frontier_sketches * n
            member_sketches.append(frontier_sketches)
            member_nodes.append(frontier_nodes)

        all_sketches = np.concatenate(member_sketches)
        all_nodes = np.concatenate(member_nodes)
        order = np.argsort(all_sketches, kind="stable")
        sizes = np.bincount(all_sketches, minlength=batch)
        return sizes, all_nodes[order]
