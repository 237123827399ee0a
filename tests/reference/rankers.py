"""The candidate rankers as the original pure-Python loops, topicsum by
the leave-one-out background and the scalar log-likelihood ratio, and
greedy KL's objective by its direct formula (``summary_kl``)."""

import math
from collections import Counter
from typing import Sequence

import numpy as np

from summ.corpus import DocumentCluster
from summ.sums import left_sum
from summ.summarizers import (
    DAMPING,
    KL_SMOOTHING,
    LEXRANK_THRESHOLD,
    POWER_ITER_MAX,
    POWER_ITER_TOL,
    TOPIC_LLR_THRESHOLD,
    RankList,
)

from reference.corpus import sentence_counts
from reference.features import reference_cosines, tfidf_vectors

# -- graph rankers ------------------------------------------------------------


def reference_power_iteration(adjacency: np.ndarray, max_iter=POWER_ITER_MAX) -> np.ndarray:
    """Stationary distribution of the damped, row-normalized walk, or its
    ``max_iter``-th step if no step moves it by ``POWER_ITER_TOL`` or less."""
    n = adjacency.shape[0]
    row_sums = adjacency.sum(axis=1)
    transition = np.full((n, n), 1.0 / n)
    nonzero = row_sums > 0
    transition[nonzero] = adjacency[nonzero] / row_sums[nonzero, None]
    teleport = (1.0 - DAMPING) / n
    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        p_next = DAMPING * (transition.T @ p) + teleport
        if np.abs(p_next - p).sum() <= POWER_ITER_TOL:
            return p_next
        p = p_next
    return p


def reference_graph_rank(adjacency: np.ndarray) -> RankList:
    """Centrality over a symmetric sentence graph: 1 for a lone sentence,
    uniform for a graph without edges."""
    n = adjacency.shape[0]
    if n == 1:
        return RankList.from_scores([1.0])
    if adjacency.sum() == 0.0:
        return RankList.from_scores([1.0 / n] * n)
    return RankList.from_scores(reference_power_iteration(adjacency))


def reference_lexrank_graph(
    cluster: DocumentCluster, threshold: float, cosines=None
) -> np.ndarray:
    """0/1 graph of the pairs whose cosine exceeds ``threshold``;
    ``cosines`` are ``reference_cosines(cluster)``, computed if not given."""
    n = len(cluster.sentences)
    adjacency = np.zeros((n, n))
    for (i, j), cosine in (cosines or reference_cosines(cluster)).items():
        if cosine > threshold:
            adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency


def reference_lexrank_rank(cluster: DocumentCluster) -> RankList:
    """Eigenvector centrality over the thresholded cosine-TF-IDF graph."""
    return reference_graph_rank(reference_lexrank_graph(cluster, LEXRANK_THRESHOLD))


def textrank_edge_weight(a: Sequence[str], b: Sequence[str]) -> float:
    """Shared-type count normalized by the log sentence lengths.

    Zero for sentences of length <= 1 (the normalizer would vanish).
    """
    if len(a) <= 1 or len(b) <= 1:
        return 0.0
    overlap = len(set(a) & set(b))
    if overlap == 0:
        return 0.0
    return overlap / (math.log(len(a)) + math.log(len(b)))


def reference_textrank_rank(cluster: DocumentCluster) -> RankList:
    """Centrality over the content-word-overlap graph."""
    n = len(cluster.sentences)
    adjacency = np.zeros((n, n))
    tokens = [s.tokens for s in cluster.sentences]
    for i in range(n):
        for j in range(i + 1, n):
            weight = textrank_edge_weight(tokens[i], tokens[j])
            if weight > 0.0:
                adjacency[i, j] = adjacency[j, i] = weight
    return reference_graph_rank(adjacency)


# -- word-statistics rankers -------------------------------------------------


def reference_centroid_rank(cluster: DocumentCluster) -> RankList:
    """Sum of cluster-centroid TF-IDF weights over each sentence's types."""
    vectors = tfidf_vectors(cluster)
    n = len(vectors)
    centroid: dict[str, float] = {}
    for vector in vectors:
        for token, weight in vector.weights.items():
            centroid[token] = centroid.get(token, 0.0) + weight
    centroid = {t: w / n for t, w in centroid.items()}
    scores = []
    for sentence in cluster.sentences:
        seen = dict.fromkeys(sentence.tokens)
        scores.append(left_sum(centroid.get(t, 0.0) for t in seen))
    return RankList.from_scores(scores)


def reference_freqsum_rank(cluster: DocumentCluster) -> RankList:
    """Average cluster-frequency of a sentence's content words."""
    counts = sentence_counts([cluster])
    total = sum(counts.values())
    scores = []
    for sentence in cluster.sentences:
        if total == 0 or not sentence.tokens:
            scores.append(0.0)
            continue
        scores.append(
            left_sum(counts[t] / total for t in sentence.tokens) / len(sentence.tokens)
        )
    return RankList.from_scores(scores)


def reference_greedykl_rank(cluster: DocumentCluster) -> RankList:
    """Greedy selection minimizing the summary-to-cluster KL divergence.

    Selection continues past any length budget until every sentence is
    ordered; the stored score of a sentence is minus its selection step.
    """
    sentences = cluster.sentences
    n = len(sentences)
    cluster_counts = sentence_counts([cluster])
    total = sum(cluster_counts.values())
    if total == 0:
        return RankList.from_scores([-(i + 1) for i in range(n)])
    k = KL_SMOOTHING * len(cluster_counts)
    log_pc = {t: math.log(c / total) for t, c in cluster_counts.items()}
    vocab_size = len(cluster_counts)

    def gain(count: int, token: str) -> float:
        mass = count + k
        return mass * (math.log(mass) - log_pc[token])

    base = left_sum(gain(0, t) for t in cluster_counts)  # all-zero summary counts
    current: Counter = Counter()
    current_total = 0
    current_sum = 0.0  # sum over present tokens of gain(c) - gain(0)
    remaining = list(range(n))
    deltas = [sorted(Counter(s.tokens).items()) for s in sentences]
    scores = [0.0] * n
    step = 0
    while remaining:
        step += 1
        best_idx = None
        best_kl = math.inf
        best_sum = 0.0
        for idx in remaining:
            cand_sum = current_sum
            for token, extra in deltas[idx]:
                have = current[token]
                cand_sum += gain(have + extra, token) - gain(have, token)
            cand_total = current_total + sum(c for _, c in deltas[idx])
            denom = cand_total + k * (vocab_size + 1)
            mass = cand_total + k * vocab_size
            kl = (base + cand_sum - mass * math.log(denom)) / denom
            if best_idx is None or kl < best_kl:
                best_idx, best_kl, best_sum = idx, kl, cand_sum
        for token, extra in deltas[best_idx]:
            current[token] += extra
        current_total += sum(c for _, c in deltas[best_idx])
        current_sum = best_sum
        remaining.remove(best_idx)
        scores[best_idx] = -float(step)
    return RankList.from_scores(scores)


def summary_kl(cluster: DocumentCluster, indices, k: float) -> float:
    """The smoothed KL divergence of the summary of sentences ``indices``
    from the cluster, by its direct formula: each summary count smoothed
    by ``k``, the cluster's word distribution unsmoothed."""
    cluster_counts = sentence_counts([cluster])
    total = sum(cluster_counts.values())
    counts = Counter(t for i in indices for t in cluster.sentences[i].tokens)
    t = sum(counts.values())
    denom = t + k * (len(cluster_counts) + 1)
    kl = 0.0
    for token, c in sorted(cluster_counts.items()):
        p = (counts[token] + k) / denom
        kl += p * math.log(p / (c / total))
    return kl


# -- topic signatures -----------------------------------------------------------


def _binomial_ll(k: float, n: float, p: float) -> float:
    """log L(p; k, n) with the 0*log(0) := 0 convention."""
    ll = 0.0
    if k > 0:
        ll += k * math.log(p)
    if n - k > 0:
        ll += (n - k) * math.log(1.0 - p)
    return ll


def log_likelihood_ratio(k1: int, n1: int, k2: int, n2: int) -> float:
    """Dunning's signed-use likelihood-ratio statistic for one token.

    Compares the token's rate in the foreground (k1 of n1) against the
    background (k2 of n2); large values mean the rates genuinely differ.
    """
    p1 = k1 / n1
    p2 = k2 / n2
    p = (k1 + k2) / (n1 + n2)
    return 2.0 * (
        _binomial_ll(k1, n1, p1)
        + _binomial_ll(k2, n2, p2)
        - _binomial_ll(k1, n1, p)
        - _binomial_ll(k2, n2, p)
    )


def reference_background_counts(
    clusters: Sequence[DocumentCluster],
) -> list[Counter]:
    """Leave-one-out pooled token counts for each cluster."""
    per_cluster = []
    total = Counter()
    for cluster in clusters:
        counts = sentence_counts([cluster])
        per_cluster.append(counts)
        total.update(counts)
    backgrounds = []
    for counts in per_cluster:
        background = Counter(
            {t: c - counts.get(t, 0) for t, c in total.items() if c > counts.get(t, 0)}
        )
        backgrounds.append(background)
    return backgrounds


def reference_topic_words(
    cluster: DocumentCluster, background: Counter, threshold: float
) -> set[str]:
    """Tokens significantly over-represented in the cluster vs background."""
    n2 = sum(background.values())
    if n2 == 0:
        raise ValueError("background required: no background token counts")
    counts = sentence_counts([cluster])
    n1 = sum(counts.values())
    if n1 == 0:
        return set()
    result = set()
    for token, k1 in counts.items():
        k2 = background.get(token, 0)
        if k1 / n1 <= k2 / n2:
            continue
        if log_likelihood_ratio(k1, n1, k2, n2) > threshold:
            result.add(token)
    return result


def reference_topicsum_rank(cluster: DocumentCluster, background: Counter) -> RankList:
    """Fraction of a sentence's tokens that are topic-signature words."""
    signature = reference_topic_words(cluster, background, TOPIC_LLR_THRESHOLD)
    scores = []
    for sentence in cluster.sentences:
        if not sentence.tokens:
            scores.append(0.0)
            continue
        hits = sum(1 for t in sentence.tokens if t in signature)
        scores.append(hits / len(sentence.tokens))
    return RankList.from_scores(scores)
