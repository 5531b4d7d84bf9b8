"""One-at-a-time reference twins of the training epoch and Algorithm 1.

The library runs one SGD kernel (the fused micro-batch update of
:meth:`repro.core.inf2vec.Inf2vecModel._update_batch`) and one walk
(the lockstep :func:`repro.core.context.generate_episode_contexts_batched`).
The plain formulations below are what those paths vectorise: one
context's Eq. 6 update at a time, and one restarting walk per adopter.
They exist only as oracles — the equivalence tests and
``benchmarks/bench_training_throughput.py`` compare the library against
them.  The module name has no ``test_`` prefix, so pytest does not
collect it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, log_expit

from repro.core.context import ContextConfig, InfluenceContext
from repro.core.embeddings import InfluenceEmbedding
from repro.core.propagation import PropagationNetwork


# ----------------------------------------------------------------------
# Algorithm 1, one adopter at a time
# ----------------------------------------------------------------------


def random_walk_with_restart(network, start, budget, restart_prob, rng):
    """Up to ``budget`` users visited by a walk restarting at ``start``.

    ``start`` is never recorded; a dead end forces an unrecorded
    restart; a start with no successors yields an empty walk.
    """
    if budget <= 0 or network.out_degree(int(start)) == 0:
        return []
    start = int(start)
    visited: list[int] = []
    current = start
    while len(visited) < budget:
        successors = network.successors(current)
        if current != start and rng.random() < restart_prob:
            current = start
            continue
        if successors.shape[0] == 0:
            current = start
            continue
        current = int(successors[rng.integers(successors.shape[0])])
        visited.append(current)
    return visited


def sample_global_context(network, user, budget, rng):
    """``budget`` co-adopters drawn uniformly with replacement, ``user`` excluded."""
    candidates = network.nodes[network.nodes != int(user)]
    if budget <= 0 or candidates.shape[0] == 0:
        return []
    picks = rng.integers(candidates.shape[0], size=budget)
    return [int(candidates[p]) for p in picks]


def sequential_episode_contexts(
    network: PropagationNetwork, config: ContextConfig, rng
) -> list[InfluenceContext]:
    """One ``(u, C_u^i)`` tuple per adopter; empty contexts are dropped."""
    contexts = []
    for user in network.nodes.tolist():
        local = random_walk_with_restart(
            network, user, config.local_budget, config.restart_prob, rng
        )
        global_ = sample_global_context(network, user, config.global_budget, rng)
        if local or global_:
            contexts.append(
                InfluenceContext(
                    user=user,
                    item=network.item,
                    local=tuple(local),
                    global_=tuple(global_),
                )
            )
    return contexts


def sequential_corpus(graph, log, config: ContextConfig, rng) -> list[InfluenceContext]:
    """The corpus ``P`` of a whole log, episode by episode, per-node walks."""
    corpus: list[InfluenceContext] = []
    for episode in log:
        network = PropagationNetwork.from_episode(graph, episode)
        corpus.extend(sequential_episode_contexts(network, config, rng))
    return corpus


# ----------------------------------------------------------------------
# Algorithm 2, one context at a time
# ----------------------------------------------------------------------


def update_context(model, user, positives, sampler, lr) -> float:
    """Eq. 6 for one context ``(u, C_u^i)``; returns its pre-update loss."""
    emb = model.embedding
    config = model.config
    u = int(user)
    exclude = np.stack([np.full_like(positives, u), positives], axis=1)
    negatives = sampler.sample_matrix(
        positives.shape[0], config.num_negatives, model.rng, exclude=exclude
    ).ravel()

    s_u = emb.source[u]
    t_pos = emb.target[positives]
    t_neg = emb.target[negatives]
    z_pos = t_pos @ s_u + emb.source_bias[u] + emb.target_bias[positives]
    z_neg = t_neg @ s_u + emb.source_bias[u] + emb.target_bias[negatives]
    g_pos = 1.0 - expit(z_pos)
    g_neg = -expit(z_neg)
    loss = -(log_expit(z_pos).sum() + log_expit(-z_neg).sum())

    # s_u is a view of emb.source: update it only after the target rows
    # that consume it.
    grad_s_u = g_pos @ t_pos + g_neg @ t_neg
    np.add.at(emb.target, positives, lr * g_pos[:, None] * s_u[None, :])
    np.add.at(emb.target, negatives, lr * g_neg[:, None] * s_u[None, :])
    emb.source[u] += lr * grad_s_u
    if config.use_biases:
        emb.source_bias[u] += lr * (g_pos.sum() + g_neg.sum())
        np.add.at(emb.target_bias, positives, lr * g_pos)
        np.add.at(emb.target_bias, negatives, lr * g_neg)

    cap = config.max_norm
    if cap is not None:
        norm = float(np.linalg.norm(emb.source[u]))
        if norm > cap:
            emb.source[u] *= cap / norm
        touched = np.unique(np.concatenate([positives, negatives]))
        norms = np.linalg.norm(emb.target[touched], axis=1)
        over = norms > cap
        emb.target[touched[over]] *= (cap / norms[over])[:, None]
    return float(loss)


def sequential_train_epoch(model, corpus, sampler=None, learning_rate=None) -> float:
    """One shuffled pass of :func:`update_context`; returns the mean loss.

    Draws the same permutation as ``Inf2vecModel.train_epoch``, so at
    ``batch_size=1`` the two follow one trajectory.
    """
    emb = model.embedding
    if sampler is None:
        sampler = model._build_sampler(corpus, emb.num_users)
    if not corpus:
        return 0.0
    if learning_rate is None:
        learning_rate = model.config.learning_rate
    total_loss = 0.0
    total_positives = 0
    for index in model.rng.permutation(len(corpus)):
        context = corpus[index]
        positives = np.asarray(context.users, dtype=np.int64)
        if positives.shape[0] == 0:
            continue
        total_loss += update_context(
            model, context.user, positives, sampler, learning_rate
        )
        total_positives += positives.shape[0]
    return total_loss / total_positives if total_positives else 0.0


def sequential_fit(model, corpus, num_users: int):
    """``model.fit_contexts(corpus, num_users)`` with the sequential epoch.

    Same RNG order as the library's loop (embedding init, then one
    permutation and the negatives per epoch) and the same annealed
    learning rate; no early stopping, so use ``convergence_tol=0``.
    """
    model._embedding = InfluenceEmbedding.initialize(
        num_users, model.config.dim, model.rng
    )
    model._loss_history = []
    sampler = model._build_sampler(corpus, num_users)
    for epoch in range(model.config.epochs):
        model._loss_history.append(
            sequential_train_epoch(
                model, corpus, sampler, model._epoch_learning_rate(epoch)
            )
        )
    return model
