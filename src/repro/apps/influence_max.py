"""Influence maximisation on learned influence parameters.

Viral marketing — pick the ``k`` seed users that maximise expected
spread — is the application motivating the paper's introduction
(Kempe et al. [1]).  This module closes that loop on top of the
library's learned models:

* :func:`greedy_influence_maximization` — the classic greedy algorithm
  with CELF lazy evaluation (Leskovec et al.), using Monte-Carlo
  spread estimates over an :class:`EdgeProbabilities` table (works
  with any IC-based model: DE, ST, EM, Emb-IC, or planted ground
  truth).
* :func:`ris_influence_maximization` — sketch-based selection: an
  adaptively sized pool of reverse-reachable sets
  (:mod:`repro.sketch`) replaces the per-candidate Monte-Carlo
  estimates, making seed selection near-linear in the pool size
  instead of O(k · |V| · runs · cascade).
* :func:`ris_pruned_influence_maximization` — the embedding-driven
  variant: the serving layer's :class:`~repro.serve.TopKIndex`
  aggregate-influence ranking prunes the candidate pool first, exact
  sketch coverage verifies within it.
* :func:`embedding_seed_selection` — a representation shortcut: rank
  users by their aggregate outgoing influence score
  ``mean_v x(u, v)`` plus marginal-coverage re-ranking, avoiding
  simulation entirely (the speed advantage Section V-B2 highlights).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.embeddings import InfluenceEmbedding
from repro.data.graph import SocialGraph
from repro.diffusion.montecarlo import expected_spread
from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import EvaluationError
from repro.serve.index import TopKIndex
from repro.serve.scoring import DEFAULT_BLOCK_SIZE, iter_source_rows
from repro.serve.topk import TopKEngine
from repro.sketch.rrsets import DEFAULT_BATCH_SIZE
from repro.sketch.schedule import (
    DEFAULT_ELL,
    DEFAULT_EPSILON,
    DEFAULT_MAX_SKETCHES,
    adaptive_rr_pool,
)
from repro.sketch.select import max_coverage_seeds
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + e^-x)`` without overflow for strongly negative ``x``.

    The naive form computes ``np.exp(-x)``, which overflows to ``inf``
    (with a RuntimeWarning) once ``x < ~-709``; ``logaddexp`` evaluates
    ``log(1 + e^-x)`` in the stable regime for either sign, so
    ``exp(-logaddexp(0, -x))`` is exact-to-rounding everywhere.
    """
    return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))


@dataclass(frozen=True)
class SeedSelection:
    """Result of a seed-selection run.

    Attributes
    ----------
    seeds:
        Chosen seed users, in selection order.
    marginal_gains:
        Estimated marginal spread gain of each selection.
    expected_spread:
        Estimated total spread of the final seed set (MC methods only;
        ``nan`` for the embedding heuristic).
    """

    seeds: tuple[int, ...]
    marginal_gains: tuple[float, ...]
    expected_spread: float


def _calibration_shift(scores: np.ndarray, mean_probability: float) -> float:
    """The ``shift`` with ``mean(sigmoid(scores - shift)) == mean_probability``.

    Bisection over float64.  The interval stops changing once ``low``
    and ``high`` are adjacent floats (about 57 passes for typical score
    ranges), so the loop ends there; the 100-pass cap still bounds the
    rare crossing near zero, where adjacent floats are far denser.
    """
    low, high = scores.min() - 30.0, scores.max() + 30.0
    for _ in range(100):
        mid = (low + high) / 2.0
        if float(np.mean(_stable_sigmoid(scores - mid))) > mean_probability:
            bounds = (mid, high)
        else:
            bounds = (low, mid)
        if bounds == (low, high):
            break
        low, high = bounds
    return (low + high) / 2.0


def embedding_edge_probabilities(
    embedding: InfluenceEmbedding,
    graph: SocialGraph,
    mean_probability: float = 0.05,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> EdgeProbabilities:
    """Calibrated IC probabilities from learned influence scores.

    Lets an embedding drive the full Monte-Carlo / CELF machinery:
    each social edge gets ``P_uv = sigmoid(x'(u, v) - shift)`` where
    ``x'`` is the influence score *centred per source* (each source's
    median score over all users subtracted — raw SGNS scores carry an
    arbitrary per-source offset, see :func:`embedding_seed_selection`)
    and the global ``shift`` is binary-searched so the mean edge
    probability equals ``mean_probability``.  Anchoring the mean to an
    externally chosen (or ST-estimated) activity level preserves the
    learned ordering while giving IC simulation the absolute scale it
    needs.

    Score rows are streamed through the blocked serving kernels
    (``block_size`` rows of scratch at a time), so calibration works at
    ``num_users`` far beyond what a dense score matrix would allow.
    """
    check_probability("mean_probability", mean_probability)
    if mean_probability in (0.0, 1.0):
        return EdgeProbabilities.constant(graph, mean_probability)
    edge_array = graph.edge_array()
    if edge_array.shape[0] == 0:
        return EdgeProbabilities(graph, np.empty(0))
    raw = embedding.score_pairs(edge_array[:, 0], edge_array[:, 1])
    # Per-source medians over all users, streamed in bounded row chunks
    # for just the sources that actually carry edges — the old code
    # materialised the full (num_users, num_users) score matrix here.
    sources = np.unique(edge_array[:, 0])
    median_by_source = np.empty(sources.shape[0], dtype=np.float64)
    offset = 0
    for users, rows in iter_source_rows(embedding, sources, block_size):
        median_by_source[offset : offset + users.shape[0]] = np.median(rows, axis=1)
        offset += users.shape[0]
    scores = raw - median_by_source[np.searchsorted(sources, edge_array[:, 0])]

    shift = _calibration_shift(scores, mean_probability)
    values = _stable_sigmoid(scores - shift)
    return EdgeProbabilities(graph, np.clip(values, 0.0, 1.0))


def greedy_influence_maximization(
    probabilities: EdgeProbabilities,
    num_seeds: int,
    num_runs: int = 200,
    seed: SeedLike = None,
    candidates: Sequence[int] | None = None,
) -> SeedSelection:
    """CELF-accelerated greedy seed selection under the IC model.

    Parameters
    ----------
    probabilities:
        Edge probabilities (learned or planted).
    num_seeds:
        Size ``k`` of the seed set.
    num_runs:
        Monte-Carlo simulations per spread estimate.
    seed:
        RNG seed for the simulations.
    candidates:
        Optional candidate pool (defaults to every node); restricting
        it to high-out-degree nodes is the standard scalability trick.

    Notes
    -----
    CELF exploits submodularity of the spread function: a node's
    marginal gain can only shrink as the seed set grows, so stale
    upper bounds are re-evaluated lazily from a max-heap.
    """
    graph = probabilities.graph
    num_seeds = check_positive_int("num_seeds", num_seeds)
    if num_seeds > graph.num_nodes:
        raise EvaluationError(
            f"num_seeds={num_seeds} exceeds the number of nodes {graph.num_nodes}"
        )
    rng = ensure_rng(seed)
    pool = (
        list(range(graph.num_nodes))
        if candidates is None
        else [int(c) for c in candidates]
    )
    if len(pool) < num_seeds:
        raise EvaluationError("candidate pool smaller than num_seeds")

    chosen: list[int] = []
    gains: list[float] = []
    current_spread = 0.0

    # Max-heap of (-gain, node, round_evaluated).
    heap: list[tuple[float, int, int]] = []
    for node in pool:
        gain = expected_spread(probabilities, [node], num_runs, rng)
        heapq.heappush(heap, (-gain, node, 0))

    while len(chosen) < num_seeds and heap:
        neg_gain, node, evaluated_round = heapq.heappop(heap)
        if evaluated_round == len(chosen):
            chosen.append(node)
            gains.append(-neg_gain)
            current_spread += -neg_gain
        else:
            fresh = (
                expected_spread(probabilities, chosen + [node], num_runs, rng)
                - current_spread
            )
            heapq.heappush(heap, (-fresh, node, len(chosen)))

    return SeedSelection(
        seeds=tuple(chosen),
        marginal_gains=tuple(gains),
        expected_spread=current_spread,
    )


def ris_influence_maximization(
    probabilities: EdgeProbabilities,
    num_seeds: int,
    epsilon: float = DEFAULT_EPSILON,
    ell: float = DEFAULT_ELL,
    seed: SeedLike = None,
    candidates: Sequence[int] | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_sketches: int = DEFAULT_MAX_SKETCHES,
) -> SeedSelection:
    """Sketch-based (RIS/IMM) seed selection under the IC model.

    Replaces the Monte-Carlo spread estimates of
    :func:`greedy_influence_maximization` with an adaptively sized pool
    of reverse-reachable sets (:func:`repro.sketch.adaptive_rr_pool`)
    followed by CELF-style lazy max-coverage
    (:func:`repro.sketch.max_coverage_seeds`) — same
    :class:`SeedSelection` result, near-linear selection cost.

    Parameters
    ----------
    probabilities:
        Edge probabilities (learned or planted).
    num_seeds:
        Size ``k`` of the seed set.
    epsilon / ell:
        IMM schedule knobs: the selection is a ``(1 - 1/e - epsilon)``
        approximation with probability ``1 - n^-ell`` (pool-cap
        permitting).
    seed:
        RNG seed/Generator for root sampling and reverse-cascade coins
        (seeded Generators only; the same seed reproduces the same
        seed set bit-for-bit).
    candidates:
        Optional candidate pool (defaults to every node).
    batch_size:
        Roots per lockstep reverse-cascade batch.
    max_sketches:
        Hard cap on the pool size.

    Notes
    -----
    ``expected_spread`` is the RIS coverage estimate of the selected
    set.  It is upward-biased by the selection itself (bounded by
    ``epsilon`` under the IMM guarantee); for an unbiased figure,
    re-estimate the returned seeds with
    :func:`repro.diffusion.montecarlo.spread_with_standard_error` or
    :meth:`repro.sketch.RRSketchPool.spread_estimate` on a fresh pool.
    """
    graph = probabilities.graph
    num_seeds = check_positive_int("num_seeds", num_seeds)
    if num_seeds > graph.num_nodes:
        raise EvaluationError(
            f"num_seeds={num_seeds} exceeds the number of nodes {graph.num_nodes}"
        )
    if candidates is not None and len(set(int(c) for c in candidates)) < num_seeds:
        raise EvaluationError("candidate pool smaller than num_seeds")
    pool, _schedule = adaptive_rr_pool(
        probabilities,
        num_seeds,
        epsilon=epsilon,
        ell=ell,
        seed=seed,
        candidates=candidates,
        batch_size=batch_size,
        max_sketches=max_sketches,
    )
    result = max_coverage_seeds(pool, num_seeds, candidates)
    scale = pool.spread_scale()
    return SeedSelection(
        seeds=result.seeds,
        marginal_gains=tuple(scale * count for count in result.marginal_counts),
        expected_spread=graph.num_nodes * result.coverage_fraction,
    )


def embedding_pruned_candidates(
    embedding: InfluenceEmbedding,
    num_candidates: int,
    probe_k: int = 10,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Top candidate users by serving-layer aggregate influence.

    Builds a :class:`~repro.serve.TopKIndex` over the embedding (the
    same blocked engine the serving layer queries) and ranks each user
    by the mass of their ``probe_k`` strongest outgoing scores with the
    per-source bias removed — ``sum_top_k x(u, ·) - probe_k · b_u`` —
    since the raw SGNS score carries a per-source offset that would
    reward untrained users (see :func:`embedding_seed_selection`).
    Returns the ``num_candidates`` highest-ranked user ids.
    """
    num_candidates = check_positive_int("num_candidates", num_candidates)
    if num_candidates > embedding.num_users:
        raise EvaluationError(
            f"num_candidates={num_candidates} exceeds "
            f"num_users={embedding.num_users}"
        )
    probe_k = min(check_positive_int("probe_k", probe_k), embedding.num_users)
    engine = TopKEngine(embedding, block_size=block_size)
    index = TopKIndex.build(engine, probe_k, direction="influenced")
    mass = index.scores.sum(axis=1) - index.k * np.asarray(
        embedding.source_bias, dtype=np.float64
    )
    # Deterministic order: by descending mass, user id breaking ties.
    ranking = np.lexsort((np.arange(mass.shape[0]), -mass))
    return np.sort(ranking[:num_candidates])


def ris_pruned_influence_maximization(
    probabilities: EdgeProbabilities,
    embedding: InfluenceEmbedding,
    num_seeds: int,
    num_candidates: int | None = None,
    probe_k: int = 10,
    epsilon: float = DEFAULT_EPSILON,
    ell: float = DEFAULT_ELL,
    seed: SeedLike = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_sketches: int = DEFAULT_MAX_SKETCHES,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SeedSelection:
    """RIS selection over an embedding-pruned candidate pool.

    The serving layer's aggregate-influence ranking
    (:func:`embedding_pruned_candidates`) keeps only the most promising
    ``num_candidates`` users (default ``max(64, 16 · num_seeds)``,
    clipped to the universe); exact sketch coverage then verifies and
    orders seeds *within* that pool.  Shrinking the candidate pool
    shrinks both the max-coverage heap and the phase-1 greedy runs of
    the sampling schedule, at the price of the pruning heuristic's
    recall — the benchmark records the spread cost empirically.
    """
    graph = probabilities.graph
    num_seeds = check_positive_int("num_seeds", num_seeds)
    if embedding.num_users != graph.num_nodes:
        raise EvaluationError(
            f"embedding covers {embedding.num_users} users but the graph "
            f"has {graph.num_nodes} nodes"
        )
    if num_candidates is None:
        num_candidates = min(graph.num_nodes, max(64, 16 * num_seeds))
    if num_candidates < num_seeds:
        raise EvaluationError(
            f"num_candidates={num_candidates} is smaller than "
            f"num_seeds={num_seeds}"
        )
    candidates = embedding_pruned_candidates(
        embedding, num_candidates, probe_k=probe_k, block_size=block_size
    )
    return ris_influence_maximization(
        probabilities,
        num_seeds,
        epsilon=epsilon,
        ell=ell,
        seed=seed,
        candidates=candidates,
        batch_size=batch_size,
        max_sketches=max_sketches,
    )


def embedding_seed_selection(
    embedding: InfluenceEmbedding,
    num_seeds: int,
    coverage_penalty: float = 0.5,
    top_k: int = 50,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SeedSelection:
    """Simulation-free seed selection from learned representations.

    The score ``x(u, v)`` carries a per-source offset (``b_u`` plus the
    scale SGNS chose for ``S_u``), so raw scores are only
    rank-meaningful *within* one source — comparing ``mean_v x(u, v)``
    across users rewards untrained users whose scores sit at the
    initialisation baseline.  The influence potential used here removes
    that calibration: each user's score row is centred on its own
    median and the potential is the mass of the ``top_k`` centred
    scores — "how far above their own baseline can this user push
    their most susceptible targets".

    Greedy selection with a diversity re-rank: after picking ``u``,
    every remaining candidate's potential is discounted by
    ``coverage_penalty * cosine(S_candidate, S_u)_+``, discouraging
    seeds that influence the same audience.

    Potentials are computed from streamed score rows
    (:func:`repro.serve.scoring.iter_source_rows`, ``block_size``
    bounding scratch memory) — no dense score matrix is built.
    """
    num_seeds = check_positive_int("num_seeds", num_seeds)
    top_k = check_positive_int("top_k", top_k)
    if num_seeds > embedding.num_users:
        raise EvaluationError(
            f"num_seeds={num_seeds} exceeds num_users={embedding.num_users}"
        )
    if coverage_penalty < 0:
        raise EvaluationError(
            f"coverage_penalty must be >= 0, got {coverage_penalty}"
        )
    # Influence potentials streamed per source row: each user's row is
    # centred on its own median and the top_k centred mass summed, one
    # bounded chunk of rows at a time — the dense
    # (num_users, num_users) matrix the old code built never exists.
    k = min(top_k, embedding.num_users)
    base_scores = np.empty(embedding.num_users, dtype=np.float64)
    for users, rows in iter_source_rows(embedding, block_size=block_size):
        centered = np.maximum(
            rows - np.median(rows, axis=1, keepdims=True), 0.0
        )
        base_scores[users] = np.sort(centered, axis=1)[:, -k:].sum(axis=1)
    norms = np.linalg.norm(embedding.source, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    directions = embedding.source / norms[:, None]

    adjusted = base_scores.astype(np.float64).copy()
    chosen: list[int] = []
    gains: list[float] = []
    for _ in range(num_seeds):
        adjusted[chosen] = -np.inf
        pick = int(np.argmax(adjusted))
        chosen.append(pick)
        gains.append(float(adjusted[pick]))
        similarity = np.maximum(directions @ directions[pick], 0.0)
        adjusted -= coverage_penalty * similarity * np.abs(base_scores)
    return SeedSelection(
        seeds=tuple(chosen),
        marginal_gains=tuple(gains),
        expected_spread=float("nan"),
    )
