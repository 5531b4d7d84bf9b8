"""Multi-process hogwild training for Inf2vec.

:class:`HogwildTrainer` orchestrates the parallel counterpart of
:meth:`repro.core.inf2vec.Inf2vecModel.fit`: it initialises the four
parameter arrays once, places them in shared memory
(:class:`~repro.parallel.shared.SharedEmbedding`), shards the action
log's episodes across ``workers`` processes, and runs lock-free SGD —
every worker applies the sparse Eq. 6 updates directly to the shared
pages, Niu et al.'s hogwild scheme.  The parent drives epochs over a
per-worker command pipe, aggregates shard losses into the global mean,
applies the shared convergence test, and checkpoints at epoch barriers
(when no worker is mid-update) with the worker topology recorded.

Determinism contract (documented in DESIGN.md §14):

* Worker RNG streams are spawn-derived from the trainer's seeded
  generator (:meth:`numpy.random.Generator.spawn`), so every stochastic
  draw is attributable to the trainer seed — the repo's no-global-rng
  invariant extends across processes.
* Sharding is deterministic (greedy size-balanced, ties by position).
* At ``workers=1`` training and resume are bitwise-deterministic, like
  the single-process engine.  At ``workers>1`` the *schedule* of
  interleaved shared-memory updates is up to the OS, so runs are only
  statistically reproducible; resume restores every worker's exact
  stream but not the interleaving.  Resume therefore requires the same
  worker count that wrote the checkpoint, and cross-worker-count
  comparisons hold only within a documented loss tolerance.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import time
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.context import ContextGenerator, InfluenceContext
from repro.core.embeddings import InfluenceEmbedding
from repro.core.inf2vec import (
    Inf2vecConfig,
    Inf2vecModel,
    annealed_learning_rate,
    loss_converged,
)
from repro.data.actionlog import ActionLog
from repro.data.graph import SocialGraph
from repro.errors import CheckpointError, TrainingError
from repro.obs.run import RunRecorder, config_fingerprint, resolve_run
from repro.parallel.shared import SharedEmbedding, SharedEmbeddingSpec
from repro.utils.logging import get_logger, log_epoch_progress
from repro.utils.rng import SeedLike, ensure_rng, generator_from_state
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from multiprocessing.connection import Connection

    from repro.ckpt.manager import CheckpointManager
    from repro.ckpt.state import TrainingState

logger = get_logger("parallel.hogwild")

#: Seconds to wait for workers to exit before escalating to terminate().
_JOIN_TIMEOUT = 10.0


def shard_episodes(log: ActionLog, workers: int) -> list[ActionLog]:
    """Split a log into ``workers`` size-balanced episode shards.

    Greedy longest-processing-time assignment: episodes sorted by
    descending adoption count (ties by log position) go to the
    currently lightest shard, which balances per-worker positive counts
    far better than round-robin on heavy-tailed cascade sizes.  The
    assignment is a pure function of ``(log, workers)`` — the
    determinism anchor for per-worker corpus regeneration on resume.
    Every episode lands in exactly one shard; shards preserve the log's
    episode order; with fewer episodes than workers the tail shards are
    empty (their workers idle through each epoch).
    """
    workers = check_positive_int("workers", workers)
    episodes = log.episodes
    order = sorted(
        range(len(episodes)), key=lambda i: (-len(episodes[i]), i)
    )
    buckets: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for index in order:
        lightest = min(range(workers), key=lambda w: (loads[w], w))
        buckets[lightest].append(index)
        loads[lightest] += len(episodes[index])
    return [
        ActionLog(
            [episodes[i] for i in sorted(bucket)], num_users=log.num_users
        )
        for bucket in buckets
    ]


def hogwild_worker_main(
    worker_id: int,
    spec: SharedEmbeddingSpec,
    config: Inf2vecConfig,
    graph: SocialGraph,
    shard: ActionLog,
    entry_rng_state: dict,
    resume_rng_state: dict | None,
    stream_chunk: int | None,
    conn: "Connection",
) -> None:
    """Process entry point for one hogwild training worker.

    The worker attaches the shared parameter blocks named by ``spec``
    and trains its episode ``shard`` against them lock-free — an
    ordinary :class:`Inf2vecModel` whose embedding arrays are zero-copy
    shared-memory views, so the existing SGD kernels update the global
    parameters directly.

    Determinism contract: the worker's generator starts from
    ``entry_rng_state`` (its spawn-derived birth state, replayed on
    resume so the regenerated corpus matches the interrupted run's),
    then jumps to ``resume_rng_state`` when resuming.  With
    ``stream_chunk`` set, the corpus is never materialised: each epoch
    regenerates and trains ``stream_chunk`` episodes' contexts at a
    time, bounding memory regardless of shard size (uniform negatives
    only — the unigram table would need the full corpus).

    Protocol over ``conn``: the worker sends ``("ready", id,
    num_contexts)`` once set up, then answers ``("epoch", index, lr)``
    commands with ``("epoch_done", id, loss_sum, positives, seconds,
    rng_state)`` until ``("stop",)`` arrives or the pipe closes (parent
    death — exit quietly so orphans never linger).  Failures are
    reported as ``("error", id, message)``.
    """
    shared = None
    try:
        shared = SharedEmbedding.attach(spec)
        streaming = stream_chunk is not None
        if streaming and config.negative_distribution != "uniform":
            raise TrainingError(
                "streaming corpus requires negative_distribution='uniform'"
            )
        rng = generator_from_state(copy.deepcopy(entry_rng_state))
        # Workers never own a recorder — the parent aggregates; fall
        # back to the zero-overhead null registry in this process.
        model = Inf2vecModel(replace(config, telemetry=False), seed=rng)
        model._embedding = shared.embedding
        generator = ContextGenerator(graph, config.context, rng)
        corpus: list[InfluenceContext] = []
        if not streaming:
            corpus = generator.generate(shard)
        sampler = model._build_sampler(corpus, graph.num_nodes)
        positives = sum(len(context) for context in corpus)
        if resume_rng_state is not None:
            rng.bit_generator.state = copy.deepcopy(resume_rng_state)
        conn.send(("ready", worker_id, len(corpus)))
        parent_pid = os.getppid()
        while True:
            # Poll instead of a blocking recv: under the fork start
            # method every worker inherits copies of its siblings'
            # (and its own) parent-side pipe ends, so a SIGKILL'd
            # parent never EOFs the pipe.  A reparented worker
            # (getppid changed) is an orphan and must exit on its own.
            try:
                while not conn.poll(0.2):
                    if os.getppid() != parent_pid:
                        return
                message = conn.recv()
            except (EOFError, OSError):  # parent is gone; stop training
                return
            if message[0] == "stop":
                return
            _, epoch, learning_rate = message
            started = time.perf_counter()
            if streaming:
                loss_sum = 0.0
                count = 0
                for chunk in generator.iter_context_chunks(shard, stream_chunk):
                    mean = model.train_epoch(
                        chunk, sampler, learning_rate=learning_rate
                    )
                    chunk_positives = sum(len(context) for context in chunk)
                    loss_sum += mean * chunk_positives
                    count += chunk_positives
            else:
                if epoch > 0 and config.regenerate_contexts:
                    corpus = generator.generate(shard)
                    sampler = model._build_sampler(corpus, graph.num_nodes)
                    positives = sum(len(context) for context in corpus)
                mean = model.train_epoch(
                    corpus, sampler, learning_rate=learning_rate
                )
                loss_sum = mean * positives
                count = positives
            conn.send(
                (
                    "epoch_done",
                    worker_id,
                    float(loss_sum),
                    int(count),
                    time.perf_counter() - started,
                    copy.deepcopy(rng.bit_generator.state),
                )
            )
    except Exception as exc:  # surfaced to the parent, which raises
        try:
            conn.send(("error", worker_id, f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        if shared is not None:
            shared.close()
        conn.close()


class HogwildTrainer:
    """Shared-memory parallel Inf2vec training (see module docstring).

    Parameters
    ----------
    config:
        Training hyper-parameters; the same schedule, convergence test,
        and SGD settings as the single-process model.
    workers:
        Worker process count.  ``1`` runs the full machinery with a
        single worker — bitwise-deterministic, the resume-equivalence
        anchor.
    seed:
        Trainer RNG seed.  Initialises the embedding and spawns the
        per-worker generators; must be spawnable (an int seed, or a
        Generator carrying a seed sequence).
    stream_chunk:
        When set, workers stream their corpus: each epoch generates and
        trains ``stream_chunk`` episodes' contexts at a time instead of
        materialising the shard corpus up front.  Requires
        ``negative_distribution='uniform'``.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap, shares the parent's resource tracker) and
        ``spawn`` elsewhere.  Worker arguments are picklable either way.

    Examples
    --------
    >>> from repro.data.synthetic import SyntheticSocialDataset
    >>> data = SyntheticSocialDataset.digg_like(num_users=60, num_items=12,
    ...                                         seed=0)
    >>> trainer = HogwildTrainer(Inf2vecConfig(dim=8, epochs=2), workers=2,
    ...                          seed=0)
    >>> model = trainer.fit(data.graph, data.log)  # doctest: +SKIP
    """

    def __init__(
        self,
        config: Inf2vecConfig | None = None,
        workers: int = 1,
        seed: SeedLike = None,
        stream_chunk: int | None = None,
        start_method: str | None = None,
    ):
        self.config = config if config is not None else Inf2vecConfig()
        self.workers = check_positive_int("workers", workers)
        if stream_chunk is not None:
            stream_chunk = check_positive_int("stream_chunk", stream_chunk)
            if self.config.negative_distribution != "uniform":
                raise TrainingError(
                    "streaming corpus requires "
                    "negative_distribution='uniform' (the unigram table "
                    "needs the full corpus)"
                )
        self.stream_chunk = stream_chunk
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._start_method = start_method
        self._rng = ensure_rng(seed)
        self._seed_text = None if seed is None else str(seed)
        self._model: Inf2vecModel | None = None
        #: Parent-side wall-clock seconds per completed epoch (barrier
        #: to barrier) — the scaling benchmark reads this.
        self.epoch_seconds: list[float] = []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        graph: SocialGraph,
        log: ActionLog,
        checkpoint: "CheckpointManager | None" = None,
        resume: bool = False,
    ) -> Inf2vecModel:
        """Train across ``self.workers`` processes; returns the model.

        The returned :class:`Inf2vecModel` owns a private copy of the
        final parameters (the shared blocks are freed before
        returning), its loss history, and the parent RNG stream —
        interchangeable with a single-process ``fit`` result.

        ``checkpoint``/``resume`` follow the single-process contract,
        with the topology restriction described in the module
        docstring: resume requires a checkpoint written by this engine
        at the same worker count.
        """
        config = self.config
        num_users = check_positive_int("num_users", graph.num_nodes)
        state = self._resume_state(checkpoint, resume)
        run = resolve_run(config.telemetry, name="hogwild.fit")
        self.epoch_seconds = []

        entry_rng_state = copy.deepcopy(self._rng.bit_generator.state)
        resume_states: list[dict | None]
        if state is not None:
            if state.source.shape != (num_users, config.dim):
                raise CheckpointError(
                    f"checkpoint holds a {state.source.shape} embedding but "
                    f"this fit needs ({num_users}, {config.dim})"
                )
            embedding = state.to_embedding()
            loss_history = [float(x) for x in state.loss_history]
            start_epoch = state.epoch + 1
            topology = state.worker_topology
            assert topology is not None  # _resume_state guarantees it
            entry_states = [
                copy.deepcopy(s) for s in topology["entry_rng_states"]
            ]
            resume_states = [copy.deepcopy(s) for s in topology["rng_states"]]
            self._rng.bit_generator.state = copy.deepcopy(state.rng_state)
            entry_rng_state = copy.deepcopy(state.entry_rng_state)
        else:
            embedding = InfluenceEmbedding.initialize(
                num_users, config.dim, self._rng
            )
            loss_history = []
            start_epoch = 0
            children = self._spawn_worker_rngs()
            entry_states = [
                copy.deepcopy(child.bit_generator.state) for child in children
            ]
            resume_states = [None] * self.workers

        model = Inf2vecModel(config, seed=self._rng)
        model._loss_history = loss_history
        if start_epoch >= config.epochs:
            # The checkpoint already covers the full budget; nothing to
            # spawn workers for.
            model._embedding = embedding
            self._model = model
            return model

        shared = SharedEmbedding.create(embedding)
        model._embedding = shared.embedding
        processes: list[multiprocessing.Process] = []
        conns: list["Connection"] = []
        try:
            with run.span("hogwild.fit", workers=self.workers):
                self._record_run_header(run, graph, log)
                shards = shard_episodes(log, self.workers)
                context = multiprocessing.get_context(self._start_method)
                for worker_id in range(self.workers):
                    parent_conn, child_conn = context.Pipe()
                    process = context.Process(
                        target=hogwild_worker_main,
                        args=(
                            worker_id,
                            shared.spec,
                            config,
                            graph,
                            shards[worker_id],
                            entry_states[worker_id],
                            resume_states[worker_id],
                            self.stream_chunk,
                            child_conn,
                        ),
                        daemon=True,
                        name=f"hogwild-worker-{worker_id}",
                    )
                    process.start()
                    child_conn.close()
                    processes.append(process)
                    conns.append(parent_conn)
                self._await_ready(conns, processes, run)

                previous_loss = loss_history[-1] if loss_history else np.inf
                for epoch in range(start_epoch, config.epochs):
                    learning_rate = annealed_learning_rate(
                        config.learning_rate,
                        epoch,
                        config.epochs,
                        config.lr_decay,
                    )
                    started = time.perf_counter()
                    with run.span("epoch", epoch=epoch) as epoch_span:
                        for conn in conns:
                            conn.send(("epoch", epoch, learning_rate))
                        replies = self._collect_epoch(conns, processes)
                        elapsed = time.perf_counter() - started
                        self._record_epoch(
                            run, epoch_span, epoch, replies, elapsed
                        )
                    self.epoch_seconds.append(elapsed)
                    total_positives = sum(r["positives"] for r in replies)
                    loss = (
                        sum(r["loss_sum"] for r in replies) / total_positives
                        if total_positives
                        else 0.0
                    )
                    loss_history.append(loss)
                    latest_states = [r["rng_state"] for r in replies]
                    converged = loss_converged(
                        previous_loss, loss, config.convergence_tol
                    )
                    if checkpoint is not None:
                        checkpoint.maybe_save(
                            model,
                            epoch,
                            entry_rng_state=entry_rng_state,
                            metrics=run.metrics,
                            force=converged or epoch == config.epochs - 1,
                            worker_topology={
                                "workers": self.workers,
                                "entry_rng_states": entry_states,
                                "rng_states": latest_states,
                            },
                        )
                    log_epoch_progress(
                        logger,
                        epoch,
                        config.epochs,
                        loss=loss,
                        elapsed=elapsed,
                        lr=f"{learning_rate:.4g}",
                        workers=self.workers,
                    )
                    if converged:
                        logger.info("converged after %d epochs", epoch + 1)
                        break
                    previous_loss = loss
        finally:
            self._shutdown(processes, conns)
            final_embedding = shared.snapshot()
            shared.close()
            shared.unlink()
            model._embedding = final_embedding
        self._model = model
        return model

    @property
    def model(self) -> Inf2vecModel:
        """The model produced by the last :meth:`fit` call."""
        if self._model is None:
            raise TrainingError("HogwildTrainer has not been fitted yet")
        return self._model

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------

    def _resume_state(
        self, checkpoint: "CheckpointManager | None", resume: bool
    ) -> "TrainingState | None":
        """Resolve the checkpoint to resume from (``None`` = fresh start)."""
        if not resume:
            return None
        if checkpoint is None:
            raise TrainingError("resume=True requires a checkpoint manager")
        state = checkpoint.latest_state()
        if state is None:
            logger.info(
                "no usable checkpoint under %s; starting fresh",
                checkpoint.directory,
            )
            return None
        _, fingerprint = config_fingerprint(self.config)
        if state.config_fingerprint != fingerprint:
            raise CheckpointError(
                f"checkpoint fingerprint {state.config_fingerprint} does not "
                f"match this config's {fingerprint}; resume requires the "
                "identical hyper-parameter configuration"
            )
        topology = state.worker_topology
        if topology is None:
            raise CheckpointError(
                "checkpoint was written by the single-process engine; "
                "resume it with Inf2vecModel.fit"
            )
        if int(topology["workers"]) != self.workers:
            raise CheckpointError(
                f"checkpoint topology has {topology['workers']} workers but "
                f"this trainer runs {self.workers}; hogwild "
                "resume-equivalence holds only at a fixed worker count"
            )
        logger.info(
            "resuming from checkpoint at epoch %d (%s, %d workers)",
            state.epoch,
            checkpoint.directory,
            self.workers,
        )
        return state

    def _spawn_worker_rngs(self) -> list[np.random.Generator]:
        try:
            return list(self._rng.spawn(self.workers))
        except TypeError as exc:  # a Generator without a seed sequence
            raise TrainingError(
                "hogwild training needs a spawnable parent generator; "
                "construct the trainer with an int seed (or a Generator "
                "built by default_rng)"
            ) from exc

    # ------------------------------------------------------------------
    # Worker protocol
    # ------------------------------------------------------------------

    def _await_ready(
        self,
        conns: list["Connection"],
        processes: list[multiprocessing.Process],
        run: RunRecorder,
    ) -> None:
        """Block until every worker finished setup (corpus generation)."""
        metrics = run.metrics
        for worker_id, conn in enumerate(conns):
            reply = self._recv(conn, processes[worker_id], worker_id)
            if reply[0] != "ready":
                raise TrainingError(
                    f"worker {worker_id}: unexpected reply {reply[0]!r} "
                    "during setup"
                )
            if metrics.enabled:
                metrics.gauge(
                    "train.worker.contexts",
                    "contexts materialised per worker shard (0 = streaming)",
                ).set(reply[2], worker=worker_id)

    def _collect_epoch(
        self, conns: list["Connection"], processes: list[multiprocessing.Process]
    ) -> list[dict]:
        """One ``epoch_done`` reply per worker, ordered by worker id."""
        replies = []
        for worker_id, conn in enumerate(conns):
            reply = self._recv(conn, processes[worker_id], worker_id)
            if reply[0] != "epoch_done":
                raise TrainingError(
                    f"worker {worker_id}: unexpected reply {reply[0]!r} "
                    "during an epoch"
                )
            _, _, loss_sum, positives, seconds, rng_state = reply
            replies.append(
                {
                    "worker": worker_id,
                    "loss_sum": float(loss_sum),
                    "positives": int(positives),
                    "seconds": float(seconds),
                    "rng_state": rng_state,
                }
            )
        return replies

    def _recv(
        self,
        conn: "Connection",
        process: multiprocessing.Process,
        worker_id: int,
    ) -> tuple:
        """Receive one message, turning worker failures into errors."""
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise TrainingError(
                f"worker {worker_id} died without reporting "
                f"(exit code {process.exitcode})"
            ) from exc
        if reply[0] == "error":
            raise TrainingError(f"worker {worker_id} failed: {reply[2]}")
        return reply

    def _shutdown(
        self, processes: list[multiprocessing.Process], conns: list["Connection"]
    ) -> None:
        """Best-effort stop + join; escalate to terminate/kill stragglers."""
        for conn in conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        deadline = time.perf_counter() + _JOIN_TIMEOUT
        for process in processes:
            process.join(timeout=max(0.1, deadline - time.perf_counter()))
            if process.is_alive():
                logger.warning(
                    "worker %s did not stop in time; terminating", process.name
                )
                process.terminate()
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
        for conn in conns:
            conn.close()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _record_run_header(
        self, run: RunRecorder, graph: SocialGraph, log: ActionLog
    ) -> None:
        if not run.enabled:
            return
        run.set_config(self.config)
        run.set_dataset(
            num_users=graph.num_nodes,
            num_edges=graph.num_edges,
            num_episodes=len(log),
        )
        annotations: dict[str, object] = {"workers": self.workers}
        if self.stream_chunk is not None:
            annotations["stream_chunk"] = self.stream_chunk
        if self._seed_text is not None:
            annotations["seed"] = self._seed_text
        run.annotate(**annotations)

    def _record_epoch(
        self,
        run: RunRecorder,
        epoch_span,
        epoch: int,
        replies: list[dict],
        elapsed: float,
    ) -> None:
        """Per-epoch global + per-worker telemetry (enabled runs only)."""
        metrics = run.metrics
        if not metrics.enabled:
            return
        total_positives = sum(r["positives"] for r in replies)
        loss = (
            sum(r["loss_sum"] for r in replies) / total_positives
            if total_positives
            else 0.0
        )
        metrics.counter("train.epochs", "completed training epochs").inc()
        metrics.gauge("train.epoch.loss", "mean per-positive loss").set(
            loss, epoch=epoch
        )
        metrics.gauge(
            "train.epoch.examples_per_sec", "positive observations per second"
        ).set(total_positives / elapsed if elapsed > 0 else 0.0, epoch=epoch)
        for reply in replies:
            worker = reply["worker"]
            metrics.counter(
                "train.worker.examples",
                "positive observations trained, per worker",
            ).inc(reply["positives"], worker=worker)
            metrics.gauge(
                "train.worker.epoch_seconds",
                "in-worker wall-clock per epoch",
            ).set(reply["seconds"], worker=worker, epoch=epoch)
            metrics.gauge(
                "train.worker.loss",
                "mean per-positive loss of the worker's shard",
            ).set(
                reply["loss_sum"] / reply["positives"]
                if reply["positives"]
                else 0.0,
                worker=worker,
                epoch=epoch,
            )
        epoch_span.set_attribute("loss", loss)
        epoch_span.set_attribute("examples", total_positives)
        epoch_span.set_attribute("workers", self.workers)

    def __repr__(self) -> str:
        return (
            f"HogwildTrainer(workers={self.workers}, "
            f"stream_chunk={self.stream_chunk}, "
            f"start_method={self._start_method!r})"
        )
