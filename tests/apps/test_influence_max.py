"""Unit tests for influence maximisation."""

import math

import numpy as np
import pytest

from repro.apps.influence_max import (
    embedding_edge_probabilities,
    embedding_pruned_candidates,
    embedding_seed_selection,
    greedy_influence_maximization,
    ris_influence_maximization,
    ris_pruned_influence_maximization,
)
from repro.core.embeddings import InfluenceEmbedding
from repro.data.graph import SocialGraph
from repro.data.synthetic import SyntheticSocialDataset
from repro.diffusion.montecarlo import spread_with_standard_error
from repro.diffusion.probabilities import EdgeProbabilities
from repro.errors import EvaluationError
from repro.sketch.rrsets import RRGenerator, RRSketchPool


@pytest.fixture
def star_probs() -> EdgeProbabilities:
    """Node 0 reaches {1..4} deterministically; others reach nobody."""
    graph = SocialGraph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 4)])
    return EdgeProbabilities.from_dict(
        graph, {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0, (0, 4): 1.0, (5, 4): 1.0}
    )


class TestGreedy:
    def test_picks_hub_first(self, star_probs):
        result = greedy_influence_maximization(star_probs, 1, num_runs=20, seed=0)
        assert result.seeds == (0,)
        assert result.expected_spread == pytest.approx(5.0)

    def test_second_seed_adds_marginal_value(self, star_probs):
        result = greedy_influence_maximization(star_probs, 2, num_runs=20, seed=0)
        assert result.seeds[0] == 0
        # 5 is the only node adding coverage beyond the hub's reach...
        # actually 5 adds itself (4 already covered): gain 1, same as
        # any uncovered singleton; the chosen one must add spread 1.
        assert result.marginal_gains[1] == pytest.approx(1.0)

    def test_gains_non_increasing(self, star_probs):
        result = greedy_influence_maximization(star_probs, 3, num_runs=20, seed=0)
        gains = list(result.marginal_gains)
        assert gains == sorted(gains, reverse=True)

    def test_candidate_pool_respected(self, star_probs):
        result = greedy_influence_maximization(
            star_probs, 1, num_runs=20, seed=0, candidates=[1, 2]
        )
        assert result.seeds[0] in (1, 2)

    def test_invalid_inputs(self, star_probs):
        with pytest.raises(EvaluationError):
            greedy_influence_maximization(star_probs, 99, num_runs=5)
        with pytest.raises(EvaluationError):
            greedy_influence_maximization(
                star_probs, 2, num_runs=5, candidates=[0]
            )
        with pytest.raises(ValueError):
            greedy_influence_maximization(star_probs, 0, num_runs=5)


class TestEmbeddingSelection:
    def test_high_influence_user_selected(self):
        source = np.zeros((5, 2))
        source[3] = [5.0, 0.0]  # strongly influences the first audience
        target = np.zeros((5, 2))
        target[[0, 1]] = [1.0, 0.0]  # audience one
        target[[2, 4]] = [0.0, 1.0]  # audience two
        emb = InfluenceEmbedding(source, target, np.zeros(5), np.zeros(5))
        result = embedding_seed_selection(emb, 1)
        assert result.seeds == (3,)

    def test_uniform_row_treated_as_calibration(self):
        """A user scoring everyone identically has no usable signal —
        the per-source centring removes the constant offset."""
        source = np.zeros((4, 2))
        source[0] = [9.0, 9.0]  # uniform against all-ones targets
        source[1] = [1.0, -1.0]  # heterogeneous
        target = np.ones((4, 2))
        target[2] = [1.0, -1.0]
        emb = InfluenceEmbedding(source, target, np.zeros(4), np.zeros(4))
        result = embedding_seed_selection(emb, 1)
        assert result.seeds == (1,)

    def test_diversity_penalty_spreads_seeds(self):
        # Users 0/1 influence the same direction; 2 a different one.
        source = np.array([[4.0, 0.0], [3.9, 0.0], [0.0, 3.0], [0.0, 0.1]])
        target = np.eye(2)[[0, 0, 1, 1]].astype(float)
        emb = InfluenceEmbedding(source, target, np.zeros(4), np.zeros(4))
        result = embedding_seed_selection(emb, 2, coverage_penalty=2.0)
        assert result.seeds[0] == 0
        assert result.seeds[1] == 2  # not the redundant user 1

    def test_no_duplicates(self):
        rng = np.random.default_rng(0)
        emb = InfluenceEmbedding(
            rng.normal(size=(10, 4)),
            rng.normal(size=(10, 4)),
            np.zeros(10),
            np.zeros(10),
        )
        result = embedding_seed_selection(emb, 5)
        assert len(set(result.seeds)) == 5

    def test_invalid_inputs(self):
        emb = InfluenceEmbedding(
            np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3), np.zeros(3)
        )
        with pytest.raises(EvaluationError):
            embedding_seed_selection(emb, 4)
        with pytest.raises(EvaluationError):
            embedding_seed_selection(emb, 1, coverage_penalty=-1.0)


class TestGreedyMatchesBruteForce:
    """CELF lazy greedy must equal exhaustive greedy on a planted graph.

    Every edge is certain (p = 1.0), so the Monte-Carlo spread estimate
    is exact regardless of seed or run count and the comparison is free
    of simulation noise.
    """

    @pytest.fixture
    def layered_probs(self) -> EdgeProbabilities:
        edges = [
            (0, 1), (0, 2), (0, 3), (0, 4),  # big hub
            (5, 6), (5, 7), (6, 8),          # chain-y hub
            (9, 10),                          # small pair
        ]
        graph = SocialGraph(12, edges)
        return EdgeProbabilities.from_dict(graph, {e: 1.0 for e in edges})

    @staticmethod
    def _exact_spread(probabilities, seeds):
        graph = probabilities.graph
        indptr, indices = graph.out_csr()
        reached = set(int(s) for s in seeds)
        frontier = list(reached)
        while frontier:
            node = frontier.pop()
            for nxt in indices[indptr[node] : indptr[node + 1]]:
                if int(nxt) not in reached:
                    reached.add(int(nxt))
                    frontier.append(int(nxt))
        return len(reached)

    def test_celf_equals_exhaustive_greedy(self, layered_probs):
        num_seeds = 4
        chosen, gains = [], []
        current = 0
        for _ in range(num_seeds):
            best_node, best_gain = None, -1
            for node in range(layered_probs.graph.num_nodes):
                if node in chosen:
                    continue
                gain = self._exact_spread(layered_probs, chosen + [node]) - current
                if gain > best_gain:
                    best_node, best_gain = node, gain
            chosen.append(best_node)
            gains.append(best_gain)
            current += best_gain
        result = greedy_influence_maximization(
            layered_probs, num_seeds, num_runs=10, seed=0
        )
        assert result.seeds == tuple(chosen)
        assert result.marginal_gains == pytest.approx(tuple(gains))
        assert result.expected_spread == pytest.approx(current)


class TestRIS:
    @pytest.fixture
    def planted_probs(self) -> EdgeProbabilities:
        data = SyntheticSocialDataset.digg_like(
            num_users=150, num_items=25, seed=8
        )
        return data.planted.edge_probabilities

    def test_picks_hub_first(self, star_probs):
        result = ris_influence_maximization(star_probs, 1, seed=0)
        assert result.seeds == (0,)
        # Certain star: sigma({0}) = 5 exactly; the sketch estimate has
        # sampling error but the pool is large enough to land close.
        assert result.expected_spread == pytest.approx(5.0, rel=0.1)

    def test_same_seed_identical_selection(self, planted_probs):
        a = ris_influence_maximization(planted_probs, 5, seed=3)
        b = ris_influence_maximization(planted_probs, 5, seed=3)
        assert a.seeds == b.seeds
        assert a.expected_spread == b.expected_spread

    def test_candidates_respected(self, planted_probs):
        candidates = [4, 8, 15, 16, 23, 42]
        result = ris_influence_maximization(
            planted_probs, 3, seed=0, candidates=candidates
        )
        assert all(s in candidates for s in result.seeds)

    def test_marginal_gains_non_increasing(self, planted_probs):
        result = ris_influence_maximization(planted_probs, 6, seed=1)
        gains = list(result.marginal_gains)
        assert gains == sorted(gains, reverse=True)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixed_set_estimate_agrees_with_monte_carlo(
        self, planted_probs, seed
    ):
        """RIS and MC estimate the same sigma(S) for *fixed* seed sets.

        Both estimators carry sampling error, so agreement is asserted
        within 4 combined standard errors (the RIS coverage count is a
        binomial over independent sketches; 3 SEs trips on ordinary
        fluctuations — seed 2 lands at 3.3 SEs while an exact live-edge
        enumeration confirms both estimators are unbiased).  Selected-on-
        the-pool seed sets would not satisfy this — their coverage is
        upward-biased — which is exactly why the comparison uses
        pre-chosen sets.
        """
        n = planted_probs.graph.num_nodes
        pool = RRSketchPool(
            n, *RRGenerator(planted_probs, seed=seed).generate(40_000)
        )
        rng = np.random.default_rng(seed)
        fixed_seeds = rng.choice(n, size=5, replace=False).tolist()
        mc, mc_se = spread_with_standard_error(
            planted_probs, fixed_seeds, num_runs=4000, seed=seed + 100
        )
        ris = pool.spread_estimate(fixed_seeds)
        fraction = ris / n
        ris_se = n * math.sqrt(
            fraction * (1.0 - fraction) / pool.num_sketches
        )
        combined = math.sqrt(mc_se**2 + ris_se**2)
        assert abs(ris - mc) <= 4.0 * combined, (ris, mc, combined)

    def test_invalid_inputs(self, star_probs):
        with pytest.raises(EvaluationError):
            ris_influence_maximization(star_probs, 99, seed=0)
        with pytest.raises(EvaluationError):
            ris_influence_maximization(
                star_probs, 3, seed=0, candidates=[0, 1]
            )
        with pytest.raises(ValueError):
            ris_influence_maximization(star_probs, 0, seed=0)


class TestRISPruned:
    @pytest.fixture
    def planted_probs(self) -> EdgeProbabilities:
        data = SyntheticSocialDataset.digg_like(
            num_users=120, num_items=20, seed=4
        )
        return data.planted.edge_probabilities

    @pytest.fixture
    def embedding(self, planted_probs) -> InfluenceEmbedding:
        return InfluenceEmbedding.initialize(
            planted_probs.graph.num_nodes, 8, seed=0
        )

    def test_seeds_come_from_pruned_pool(self, planted_probs, embedding):
        num_candidates = 24
        result = ris_pruned_influence_maximization(
            planted_probs, embedding, 4, num_candidates=num_candidates, seed=5
        )
        pruned = set(
            embedding_pruned_candidates(embedding, num_candidates).tolist()
        )
        assert set(result.seeds) <= pruned

    def test_same_seed_identical_selection(self, planted_probs, embedding):
        a = ris_pruned_influence_maximization(
            planted_probs, embedding, 3, seed=2
        )
        b = ris_pruned_influence_maximization(
            planted_probs, embedding, 3, seed=2
        )
        assert a.seeds == b.seeds

    def test_pruned_candidates_shape(self, embedding):
        candidates = embedding_pruned_candidates(embedding, 10)
        assert candidates.shape == (10,)
        assert np.unique(candidates).shape == (10,)
        assert np.all(np.diff(candidates) > 0)  # sorted ids

    def test_embedding_size_mismatch_rejected(self, planted_probs):
        wrong = InfluenceEmbedding.initialize(7, 4, seed=0)
        with pytest.raises(EvaluationError):
            ris_pruned_influence_maximization(planted_probs, wrong, 2, seed=0)


class TestEmbeddingEdgeProbabilities:
    @pytest.fixture
    def graph(self) -> SocialGraph:
        return SocialGraph(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 0)])

    @pytest.fixture
    def embedding(self) -> InfluenceEmbedding:
        rng = np.random.default_rng(3)
        return InfluenceEmbedding(
            rng.normal(size=(5, 3)),
            rng.normal(size=(5, 3)),
            rng.normal(size=5),
            rng.normal(size=5),
        )

    def test_mean_matches_target(self, graph, embedding):
        probs = embedding_edge_probabilities(graph=graph, embedding=embedding,
                                             mean_probability=0.07)
        assert probs.values.mean() == pytest.approx(0.07, abs=1e-4)
        assert probs.values.min() >= 0.0
        assert probs.values.max() <= 1.0

    def test_preserves_centered_score_order(self, graph, embedding):
        probs = embedding_edge_probabilities(embedding, graph, 0.2)
        pairwise = (
            embedding.source @ embedding.target.T
            + embedding.source_bias[:, None]
            + embedding.target_bias[None, :]
        )
        medians = np.median(pairwise, axis=1)
        edges = graph.edge_array()
        centered = [
            pairwise[u, v] - medians[u] for u, v in edges
        ]
        order_scores = np.argsort(centered)
        order_probs = np.argsort(probs.values)
        assert np.array_equal(order_scores, order_probs)

    def test_degenerate_targets(self, graph, embedding):
        zeros = embedding_edge_probabilities(embedding, graph, 0.0)
        ones = embedding_edge_probabilities(embedding, graph, 1.0)
        assert np.all(zeros.values == 0.0)
        assert np.all(ones.values == 1.0)

    def test_empty_graph(self, embedding):
        graph = SocialGraph(5, [])
        probs = embedding_edge_probabilities(embedding, graph, 0.1)
        assert probs.values.shape == (0,)

    def test_invalid_mean(self, graph, embedding):
        with pytest.raises(ValueError):
            embedding_edge_probabilities(embedding, graph, 1.5)

    def test_stable_sigmoid_no_overflow_for_extreme_scores(self, graph):
        """Regression: the naive ``exp(-(x - shift))`` overflowed to inf
        with RuntimeWarnings for strongly negative centred scores."""
        import warnings

        rng = np.random.default_rng(0)
        extreme = InfluenceEmbedding(
            1000.0 * rng.normal(size=(5, 3)),
            1000.0 * rng.normal(size=(5, 3)),
            1000.0 * rng.normal(size=5),
            1000.0 * rng.normal(size=5),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            probs = embedding_edge_probabilities(extreme, graph, 0.05)
        assert np.all(np.isfinite(probs.values))
        assert np.all((probs.values >= 0.0) & (probs.values <= 1.0))

    def test_stable_sigmoid_matches_naive_in_safe_range(self):
        from repro.apps.influence_max import _stable_sigmoid

        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(
            _stable_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14
        )

    @pytest.mark.parametrize(
        "scores,target",
        [
            (np.random.default_rng(1).normal(size=500), 0.03),
            (np.random.default_rng(2).normal(scale=40.0, size=300), 0.2),
            (1e8 + np.random.default_rng(3).normal(size=200), 0.05),
            (np.zeros(50), 0.3),
            # Crossing at shift ~0: adjacent floats are dense there, so
            # the bisection runs into the 100-pass cap.
            (np.array([-1.0, 1.0]), 0.5),
        ],
    )
    def test_calibration_shift_matches_full_bisection(self, scores, target):
        from repro.apps.influence_max import _calibration_shift, _stable_sigmoid

        low, high = scores.min() - 30.0, scores.max() + 30.0
        for _ in range(100):
            mid = (low + high) / 2.0
            if np.mean(_stable_sigmoid(scores - mid)) > target:
                low = mid
            else:
                high = mid
        assert _calibration_shift(scores, target) == (low + high) / 2.0

    def test_blocked_calibration_invariant_to_block_size(self, graph, embedding):
        """Streamed per-source medians are bitwise block-size-invariant."""
        probs = embedding_edge_probabilities(embedding, graph, 0.1, block_size=2)
        default = embedding_edge_probabilities(embedding, graph, 0.1)
        np.testing.assert_array_equal(probs.values, default.values)


class TestBlockedSeedSelection:
    @pytest.fixture
    def embedding(self) -> InfluenceEmbedding:
        rng = np.random.default_rng(17)
        return InfluenceEmbedding(
            rng.normal(size=(25, 4)),
            rng.normal(size=(25, 4)),
            rng.normal(size=25),
            rng.normal(size=25),
        )

    def test_block_size_does_not_change_selection(self, embedding):
        reference = embedding_seed_selection(embedding, 5)
        for block_size in (1, 3, 64):
            got = embedding_seed_selection(embedding, 5, block_size=block_size)
            assert got.seeds == reference.seeds
            assert got.marginal_gains == pytest.approx(reference.marginal_gains)
