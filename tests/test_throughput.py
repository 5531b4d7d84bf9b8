"""Throughput smoke test: the library against the sequential oracle.

Marked ``slow`` and deselected by default (see ``pyproject.toml``);
run with ``pytest -m slow``.  The full-scale measurement lives in
``benchmarks/bench_training_throughput.py`` and persists its report to
``BENCH_training.json``.
"""

import pytest

from repro.core.context import ContextConfig, ContextGenerator
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.data.synthetic import SyntheticSocialDataset
from repro.utils.rng import ensure_rng
from repro.utils.timer import timed
from tests.core.sequential_oracle import sequential_corpus, sequential_train_epoch

pytestmark = pytest.mark.slow


def test_batched_engine_outperforms_sequential_smoke():
    data = SyntheticSocialDataset.digg_like(
        num_users=600, num_items=120, seed=7
    )
    config = Inf2vecConfig(
        dim=16, context=ContextConfig(length=30, alpha=0.1), epochs=1
    )

    seq_corpus, seq_context = timed(
        lambda: sequential_corpus(
            data.graph, data.log, config.context, ensure_rng(0)
        )
    )
    corpus, bat_context = timed(
        lambda: ContextGenerator(data.graph, config.context, seed=0).generate(
            data.log
        )
    )
    assert len(corpus) == len(seq_corpus)

    seq_model = Inf2vecModel(config, seed=0)
    seq_model.fit_contexts(corpus[:1], num_users=data.graph.num_nodes)
    _, seq_train = timed(lambda: sequential_train_epoch(seq_model, corpus))

    bat_model = Inf2vecModel(config, seed=0)
    bat_model.fit_contexts(corpus[:1], num_users=data.graph.num_nodes)
    _, bat_train = timed(lambda: bat_model.train_epoch(corpus))

    # Smoke thresholds are deliberately loose — the committed
    # BENCH_training.json records the real (>= 3x) margins at scale.
    assert bat_context < seq_context, (seq_context, bat_context)
    assert bat_train < seq_train, (seq_train, bat_train)
