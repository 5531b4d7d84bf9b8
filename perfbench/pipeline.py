"""The benchmarked pipeline, driven only through the library's public API.

synthetic input -> ``Inf2vecModel.fit`` -> activation evaluation -> IM seed
selection on learned probabilities -> forward Monte-Carlo check on planted
probabilities -> publish (store + top-k index) -> closed-loop query stream.

Library functions are called through their modules (``activation.
evaluate_activation``, not a name imported at load time) so that the traced
run's wrappers (:mod:`tracer`) see the same calls the untraced run makes.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.apps import influence_max
from repro.core import context as core_context
from repro.core import inf2vec
from repro.core.prediction import EmbeddingPredictor
from repro.data import synthetic
from repro.data.actionlog import ActionLog
from repro.diffusion import montecarlo
from repro.errors import ServingError
from repro.eval import activation
from repro.serve import index as serve_index
from repro.serve import service as serve_service
from repro.serve import store as serve_store
from repro.sketch import rrsets, schedule

from tracer import Tracer
from workloads import (
    CHECK_USERS,
    CONTEXT_ALPHA,
    CONTEXT_LENGTH,
    DIM,
    EPOCHS,
    INDEX_K,
    MC_RUNS,
    NUM_SEEDS,
    PARETO_SHAPE,
    SCAN_SHARE,
    WARMUP_QUERIES,
    Workload,
)

# Stream tags for deriving independent generators from the workload seed.
_SPLIT, _MODEL, _CHECK, _WARMUP, _STREAM, _RIS, _MC = range(1, 8)


def derived_rng(seed: int, *tags: int) -> np.random.Generator:
    """An independent generator for one purpose, fixed by ``seed``."""
    return np.random.default_rng([seed, *tags])


@dataclass
class Ledger:
    """Queries and output checks attempted and failed.

    A stage that raises ends the run instead: the command then exits
    non-zero without printing a result.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    dataset: synthetic.SyntheticSocialDataset
    train: ActionLog
    test: ActionLog


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Dataset generation plus an 80/20 episode split.

    The paper splits episodes 80/10/10 and tunes on the middle tenth; the
    benchmark tunes nothing, so both held-out tenths are evaluated, twice
    the episodes behind each AUC and MAP figure.
    """
    maker = getattr(synthetic.SyntheticSocialDataset, workload.preset)
    dataset = maker(
        num_users=workload.num_users,
        num_items=workload.num_items,
        seed=seed,
        pareto_shape=PARETO_SHAPE,
    )
    train, test = dataset.log.split((0.8, 0.2), seed=derived_rng(seed, _SPLIT))
    return Inputs(dataset=dataset, train=train, test=test)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def index_mismatches(service, users, k: int) -> list[int]:
    """Users whose index-path answer differs bitwise from a live scan."""
    bad = []
    for user in users:
        served = service.top_influenced(int(user), k)
        scanned = service.engine.top_influenced(int(user), k)
        if (
            served.indices.tobytes() != scanned.indices.tobytes()
            or served.scores.tobytes() != scanned.scores.tobytes()
        ):
            bad.append(int(user))
    return bad


def seeds_valid(seeds, k: int, num_nodes: int) -> bool:
    """``k`` distinct integer node ids in ``[0, num_nodes)``."""
    if not all(isinstance(s, (int, np.integer)) for s in seeds):
        return False
    ids = [int(s) for s in seeds]
    return len(ids) == k and len(set(ids)) == k and all(0 <= s < num_nodes for s in ids)


# ----------------------------------------------------------------------
# Query stream
# ----------------------------------------------------------------------


@dataclass
class StreamResult:
    latencies: np.ndarray  # seconds, one per completed query
    wall: float
    failed: int


def query_stream(
    service, seed: int, seconds: float, count: int | None = None
) -> StreamResult:
    """Closed loop, one caller: each query is sent when the last returns.

    About ``SCAN_SHARE`` of the queries are ``top_influencers`` (a live
    block scan), the rest ``top_influenced`` (served by the precomputed
    index); users are uniform.  The mix is drawn from the seed up front and
    interleaved.  The stream runs for ``seconds``, or for exactly ``count``
    queries when given (the traced run replays the same stream length).
    """
    num_users = service.num_users
    warm = derived_rng(seed, _WARMUP)
    for user in warm.integers(0, num_users, size=WARMUP_QUERIES).tolist():
        service.top_influenced(user, INDEX_K)
        service.top_influencers(user, INDEX_K)

    rng = derived_rng(seed, _STREAM)
    chunk = 4096
    latencies: list[float] = []
    failed = 0
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    done = False
    while not done:
        users = rng.integers(0, num_users, size=chunk).tolist()
        scans = (rng.random(chunk) < SCAN_SHARE).tolist()
        for user, scan in zip(users, scans):
            call = service.top_influencers if scan else service.top_influenced
            began = clock()
            try:
                call(user, INDEX_K)
            except ServingError:
                failed += 1
            ended = clock()
            latencies.append(ended - began)
            if (len(latencies) >= count) if count is not None else ended >= deadline:
                done = True
                break
    return StreamResult(np.asarray(latencies), clock() - started, failed)


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------


def model_config() -> inf2vec.Inf2vecConfig:
    """dim 32, L = 50, alpha = 0.1, one epoch; library defaults otherwise."""
    return inf2vec.Inf2vecConfig(
        dim=DIM,
        epochs=EPOCHS,
        context=core_context.ContextConfig(length=CONTEXT_LENGTH, alpha=CONTEXT_ALPHA),
    )


@dataclass
class PipelineResult:
    train_s: float
    publish_s: list[float]
    im_select_s: list[float]
    stream: StreamResult
    activation_auc: float
    activation_map: float
    final_loss: float
    im_spread: list[float]
    ledger: Ledger


def run_pipeline(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    seconds: float,
    workdir: Path,
    repeats: bool = True,
    stream_count: int | None = None,
    tracer: Tracer | None = None,
) -> PipelineResult:
    """Train, evaluate, select seeds, publish, serve and check the outputs.

    ``repeats`` runs the sub-second stages ``workload.*_repeats`` times
    (the traced run runs each once).  ``gc.collect()`` precedes every timed
    stage.  The time-bound query stream runs last: it is the one stage whose
    amount of work depends on machine speed, so every stage before it, and
    therefore the process's peak RSS, sees the same allocation history at a
    given seed.
    """
    stage = tracer.span if tracer is not None else (lambda name: nullcontext())
    ledger = Ledger()
    dataset = inputs.dataset
    graph = dataset.graph
    clock = time.perf_counter

    with stage("bench.train"):
        model = inf2vec.Inf2vecModel(model_config(), seed=derived_rng(seed, _MODEL))
        gc.collect()
        began = clock()
        model.fit(graph, inputs.train)
        train_s = clock() - began
    final_loss = float(model.loss_history[-1])
    ledger.check(math.isfinite(final_loss), f"final loss {final_loss} not finite")

    with stage("bench.activation"):
        gc.collect()
        scores = activation.evaluate_activation(
            EmbeddingPredictor(model.embedding), graph, inputs.test
        )
    auc, mean_ap = float(scores.auc), float(scores.map)
    ledger.check(math.isfinite(auc) and auc > 0.5, f"activation AUC {auc} not > 0.5")
    ledger.check(math.isfinite(mean_ap), f"activation MAP {mean_ap} not finite")

    im_select_s: list[float] = []
    selections = []
    with stage("bench.im_select"):
        for r in range(workload.im_repeats if repeats else 1):
            gc.collect()
            began = clock()
            learned = influence_max.embedding_edge_probabilities(
                model.embedding, graph, mean_probability=workload.im_mean_probability
            )
            selection = influence_max.ris_influence_maximization(
                learned, NUM_SEEDS, seed=derived_rng(seed, _RIS, r)
            )
            im_select_s.append(clock() - began)
            selections.append(selection)
            del learned
    for r, selection in enumerate(selections):
        ledger.check(
            seeds_valid(selection.seeds, NUM_SEEDS, graph.num_nodes),
            f"repeat {r}: seeds are not {NUM_SEEDS} distinct valid node ids",
        )

    spreads = []
    with stage("bench.forward_mc"):
        # Scored under the *planted* probabilities, never by the selector's
        # own sketches: RIS coverage of its own pick is biased upwards.
        for selection in selections:
            spread, _stderr = montecarlo.spread_with_standard_error(
                dataset.planted.edge_probabilities,
                list(selection.seeds),
                num_runs=MC_RUNS,
                seed=derived_rng(seed, _MC),
            )
            spreads.append(float(spread))
            ledger.check(
                math.isfinite(spread) and spread >= NUM_SEEDS,
                f"forward-MC spread {spread} below the seed count",
            )

    publish_s: list[float] = []
    service = None
    with stage("bench.publish"):
        for r in range(workload.publish_repeats if repeats else 1):
            service = None
            gc.collect()
            began = clock()
            serve_store.EmbeddingStore.save(model.embedding, workdir / f"store-{r}")
            service = serve_service.InfluenceService.open(workdir / f"store-{r}")
            service.precompute(k=INDEX_K)
            publish_s.append(clock() - began)
    ledger.check(
        service.indices["influenced"].indices.shape == (graph.num_nodes, INDEX_K),
        "precomputed index has the wrong shape",
    )

    with stage("bench.check_index"):
        sample = derived_rng(seed, _CHECK).choice(
            graph.num_nodes, size=min(CHECK_USERS, graph.num_nodes), replace=False
        )
        bad = index_mismatches(service, sample, INDEX_K)
        ledger.check(not bad, f"index rows differ from live scan for users {bad}")

    with stage("bench.query_stream"):
        gc.collect()
        stream = query_stream(service, seed, seconds, stream_count)
    ledger.attempted += stream.latencies.shape[0]
    ledger.failed += stream.failed
    if stream.failed:
        ledger.failures.append(f"{stream.failed} queries failed")

    return PipelineResult(
        train_s=train_s,
        publish_s=publish_s,
        im_select_s=im_select_s,
        stream=stream,
        activation_auc=auc,
        activation_map=mean_ap,
        final_loss=final_loss,
        im_spread=spreads,
        ledger=ledger,
    )


def median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Traced-run layer spans
# ----------------------------------------------------------------------


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (call inside ``installed``)."""
    wrap = tracer.wrap
    wrap(synthetic.SyntheticSocialDataset, "generate", "data.synthetic.generate", "data.synthetic")
    wrap(synthetic, "generate_power_law_graph", "data.synthetic.graph", "data.synthetic")
    wrap(synthetic, "simulate_episode", "data.synthetic.cascades", "data.synthetic")
    wrap(core_context.ContextGenerator, "generate", "core.context.generate", "core.context", rss=True)
    wrap(inf2vec.Inf2vecModel, "fit", "core.inf2vec.fit", "core.inf2vec", rss=True)
    wrap(inf2vec.Inf2vecModel, "train_epoch", "core.inf2vec.epoch", "core.inf2vec")
    wrap(activation, "evaluate_activation", "eval.activation", "eval.activation")
    wrap(serve_store.EmbeddingStore, "save", "serve.store.save", "serve.store")
    wrap(serve_store.EmbeddingStore, "open", "serve.store.open", "serve.store")
    wrap(serve_index.TopKIndex, "build", "serve.index.build", "serve.index")
    wrap(serve_index.TopKIndex, "save", "serve.index.save", "serve.index")
    wrap(serve_index.TopKIndex, "open", "serve.index.open", "serve.index")
    wrap(serve_service.InfluenceService, "open", "serve.service.open", "serve.service")
    wrap(serve_service.InfluenceService, "precompute", "serve.service.precompute", "serve.service", rss=True)
    wrap(serve_service.InfluenceService, "top_influenced", "serve.service.top_influenced", "serve.service")
    wrap(serve_service.InfluenceService, "top_influencers", "serve.service.top_influencers", "serve.service")
    wrap(influence_max, "embedding_edge_probabilities", "apps.influence_max.calibrate", "apps.influence_max")
    wrap(influence_max, "ris_influence_maximization", "apps.influence_max.ris", "apps.influence_max")
    wrap(influence_max, "adaptive_rr_pool", "sketch.schedule.pool", "sketch", rss=True)
    wrap(influence_max, "max_coverage_seeds", "sketch.select.celf", "sketch")
    wrap(schedule, "max_coverage_seeds", "sketch.select.celf", "sketch")
    wrap(rrsets.RRGenerator, "generate", "sketch.rrsets.generate", "sketch")
    wrap(montecarlo, "spread_with_standard_error", "diffusion.montecarlo.spread", "diffusion.montecarlo")


#: Layers whose self-time share the traced run reports as ``<layer>.self_frac``.
LAYERS = (
    "data.synthetic",
    "core.context",
    "core.inf2vec",
    "eval.activation",
    "serve.store",
    "serve.index",
    "serve.service",
    "apps.influence_max",
    "sketch",
    "diffusion.montecarlo",
)
