"""The candidate summarization systems and summary extraction.

Every ranker scores *all* sentences of a cluster and returns a total
order, so downstream aggregation always works with full rank vectors.
All rankers are pure functions of (``ClusterFeatures``, config): reruns
are bit-identical and different clusters can be ranked concurrently.

Ties are broken by the smaller sentence index everywhere.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from typing import Mapping, Sequence

import numpy as np

from .corpus import DocumentCluster
from .features import SentenceVector, cosine_similarity

logger = logging.getLogger(__name__)

CANDIDATE_SYSTEMS = (
    "lexrank",
    "textrank",
    "centroid",
    "freqsum",
    "topicsum",
    "greedykl",
)

BUDGET_KINDS = ("words", "bytes")


@dataclass(frozen=True)
class LengthBudget:
    """Summary size cap: word count or UTF-8 byte count."""

    kind: str
    limit: int

    def __post_init__(self):
        if self.kind not in BUDGET_KINDS:
            raise ValueError(f"budget kind must be one of {BUDGET_KINDS}")
        if self.limit <= 0:
            raise ValueError("budget limit must be > 0")

    @classmethod
    def parse(cls, text: str) -> "LengthBudget":
        """Parse ``words:100`` / ``bytes:665``."""
        kind, sep, limit = text.partition(":")
        if not sep or not re.fullmatch(r"-?[0-9]+", limit):
            raise ValueError(f"bad budget {text!r}, expected kind:limit")
        return cls(kind=kind, limit=int(limit))


@dataclass(frozen=True)
class SummarizerConfig:
    lexrank_threshold: float = 0.1
    damping: float = 0.85
    power_iter_tol: float = 1e-6
    power_iter_max: int = 200
    topic_llr_threshold: float = 10.83
    kl_smoothing_k: float | None = None  # None: 0.0005 * vocabulary size
    budget: LengthBudget = field(default_factory=lambda: LengthBudget("words", 100))

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.lexrank_threshold >= 0:
            raise ValueError("lexrank_threshold must be >= 0")
        if not 0 < self.damping < 1:
            raise ValueError("damping must be in (0, 1)")
        if (
            not self.power_iter_tol > 0
            or isinstance(self.power_iter_max, bool)
            or not isinstance(self.power_iter_max, int)
            or self.power_iter_max < 1
        ):
            raise ValueError("bad power iteration settings")
        if not self.topic_llr_threshold > 0:
            raise ValueError("topic_llr_threshold must be > 0")
        # a NaN k makes every KL NaN, and argmin takes the first NaN, chosen or not
        if self.kl_smoothing_k is not None and not 0 <= self.kl_smoothing_k < math.inf:
            raise ValueError("kl_smoothing_k must be finite and >= 0")


@dataclass(frozen=True)
class RankList:
    """Scores plus the derived permutation over a cluster's sentences.

    ``ranks[i]`` is the rank of sentence i (1 = best); higher score means
    smaller rank, ties go to the smaller sentence index.
    """

    system_id: str
    scores: tuple[float, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        n = len(self.scores)
        if len(self.ranks) != n:
            raise ValueError("scores and ranks must have equal length")
        order = self.order()  # holds None for each of 1..N that ranks lack
        if None in order:
            raise ValueError("ranks must be a permutation of 1..N")
        scores = self.scores
        for a, b in zip(order, order[1:]):
            if not (scores[a] > scores[b] or (scores[a] == scores[b] and a < b)):
                raise ValueError("ranks inconsistent with scores")

    @classmethod
    def from_scores(cls, system_id: str, scores: Sequence[float]) -> "RankList":
        scores = tuple(map(float, scores))
        if any(map(math.isnan, scores)):
            raise ValueError("scores must not contain NaN")
        # a stable sort, so equal scores keep ascending index
        order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
        ranks = [0] * len(scores)
        for position, idx in enumerate(order):
            ranks[idx] = position + 1
        return cls(system_id=system_id, scores=scores, ranks=tuple(ranks))

    def order(self) -> list[int]:
        """Sentence indices from best to worst."""
        position = dict(zip(self.ranks, range(len(self.ranks))))
        return list(map(position.get, range(1, len(self.ranks) + 1)))


@dataclass(frozen=True)
class Summary:
    """Extracted sentence indices in selection order, plus size tallies."""

    sentence_indices: tuple[int, ...]
    token_count: int
    byte_count: int


def _uniform_ranklist(system_id: str, n: int) -> RankList:
    return RankList.from_scores(system_id, [1.0 / n] * n)


def _power_iteration(
    adjacency: np.ndarray, config: SummarizerConfig
) -> np.ndarray:
    """Stationary distribution of the damped, row-normalized walk.  The
    adjacency is row-normalized in place; a row with no edges is uniform."""
    n = adjacency.shape[0]
    row_sums = adjacency.sum(axis=1)
    nonzero = row_sums > 0
    transition = np.divide(adjacency, row_sums[:, None], out=adjacency, where=nonzero[:, None])
    transition[~nonzero] = 1.0 / n
    teleport = (1.0 - config.damping) / n
    p = np.full(n, 1.0 / n)
    for _ in range(config.power_iter_max):
        p_next = config.damping * (transition.T @ p) + teleport
        if np.abs(p_next - p).sum() <= config.power_iter_tol:
            return p_next
        p = p_next
    logger.warning("power iteration did not reach tol in %d steps", config.power_iter_max)
    return p


def _graph_rank(
    system_id: str, adjacency: np.ndarray, cluster: DocumentCluster,
    config: SummarizerConfig,
) -> RankList:
    n = len(cluster.sentences)
    if n == 1:
        return RankList.from_scores(system_id, [1.0])
    if adjacency.sum() == 0.0:
        logger.warning(
            "%s: no graph edges in cluster %s, falling back to uniform scores",
            system_id, cluster.cluster_id,
        )
        return _uniform_ranklist(system_id, n)
    return RankList.from_scores(system_id, _power_iteration(adjacency, config))


class ClusterFeatures:
    """One cluster's term statistics, each built on first use and kept, so
    that every ranker and the redundancy cap share one copy."""

    def __init__(self, cluster: DocumentCluster):
        self.cluster = cluster

    @cached_property
    def counts(self) -> Counter:
        """Token counts over the cluster, keys in first-occurrence order."""
        return Counter(t for sentence in self.cluster.sentences for t in sentence.tokens)

    @cached_property
    def ids(self) -> dict[str, int]:
        """An id per token, numbering the vocabulary in sorted token order."""
        return {t: i for i, t in enumerate(sorted(self.counts))}

    @cached_property
    def stream(self) -> tuple[np.ndarray, np.ndarray]:
        """Every token in text order, as (sentence, token id) int64 arrays."""
        sentences, ids = self.cluster.sentences, self.ids
        lengths = [len(s.tokens) for s in sentences]
        token = np.fromiter((ids[t] for s in sentences for t in s.tokens), np.int64, sum(lengths))
        return np.repeat(np.arange(len(sentences), dtype=np.int64), lengths), token

    @cached_property
    def _entry_orders(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        row, token = self.stream
        width = max(len(self.ids), 1)
        # return_index keeps np.unique off its path that imports numpy.ma
        keys, first, counts = np.unique(row * width + token, return_index=True, return_counts=True)
        entries = np.stack((*np.divmod(keys, width), counts))  # int64 rows
        return tuple(entries), tuple(entries[:, np.argsort(first)])

    @property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sentence x token counts as sparse (sentence, token id, count)
        int64 arrays, sentence-major, each sentence's tokens in sorted order."""
        return self._entry_orders[0]

    @property
    def first_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``entries`` with each sentence's tokens in first-occurrence order."""
        return self._entry_orders[1]

    @cached_property
    def tfidf(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``tfidf_vectors`` of the cluster."""
        return tfidf_vectors(self)

    @cached_property
    def vectors(self) -> tuple[SentenceVector, ...]:
        """``tfidf`` as one vector per sentence, for ``cosine_similarity``."""
        rows, cols, weights = self.tfidf
        vocab, vectors = list(self.ids), [SentenceVector({}) for _ in self.cluster.sentences]
        for row, col, weight in zip(rows.tolist(), cols.tolist(), weights.tolist()):
            vectors[row].weights[vocab[col]] = weight
        return tuple(vectors)


def tfidf_vectors(features: ClusterFeatures) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TF-IDF weights as sparse (sentence, token id, weight) arrays, in
    ``features.first_entries`` order.  tf is the within-sentence count;
    idf = ln(D / df) by ``math.log``, with document frequency taken over the
    cluster's own documents.  Tokens present in every document are dropped."""
    cluster, vocab_size = features.cluster, len(features.ids)
    rows, cols, counts = features.first_entries
    doc_index = {d.doc_id: i for i, d in enumerate(cluster.documents)}
    docs = np.array([doc_index[s.doc_id] for s in cluster.sentences], dtype=np.int64)
    width, n_docs = max(vocab_size, 1), len(cluster.documents)
    pairs, _ = np.unique(docs[rows] * width + cols, return_counts=True)
    df = np.bincount(pairs % width, minlength=vocab_size)  # >= 1 for every token id
    idf = _math_log(n_docs / np.arange(1, n_docs + 1))[df - 1]  # one log per df value
    kept = df[cols] < n_docs
    return rows[kept], cols[kept], counts[kept] * idf[cols[kept]]


_BLOCK = 64  # columns of a sparse matrix made dense at a time


def _cross_products(
    n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``M @ M.T`` off the diagonal, for the n-row ``M[rows, cols] = values``.

    The diagonal is left incomplete: a column with a single entry only
    reaches the diagonal, so it is dropped.  M is made dense a block of
    columns at a time, so memory grows with n * n, not with the number of
    columns.  An integer-valued M gives exact integers.
    """
    shared_col = np.bincount(cols) >= 2
    shared = shared_col[cols]
    rows, values = rows[shared], values[shared]
    cols = (np.cumsum(shared_col) - 1)[cols[shared]]  # renumbered densely
    products = np.zeros((n, n))
    block = np.empty((n, _BLOCK))
    for start in range(0, int(shared_col.sum()), _BLOCK):
        block.fill(0.0)
        inside = (cols >= start) & (cols < start + _BLOCK)
        block[rows[inside], cols[inside] - start] = values[inside]
        products += block @ block.T
    return products


# Gram-matrix cosines are within ~1e-13 of the fsum-exact ones; pairs this
# close to the threshold are decided by ``cosine_similarity`` itself.
_NEAR_THRESHOLD = 1e-9


def _lexrank_adjacency(features: ClusterFeatures, threshold: float) -> np.ndarray:
    """0/1 graph of the sentence pairs whose cosine exceeds ``threshold``."""
    rows, cols, weights = features.tfidf
    n = len(features.cluster.sentences)
    cosine = _cross_products(n, rows, cols, weights)
    # the norms of SentenceVector.norm, so that empty rows stay 0
    squares = (weights * weights).tolist()
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    norms = np.array([
        math.sqrt(math.fsum(squares[a:b])) or 1.0 for a, b in zip(bounds, bounds[1:])
    ])
    cosine /= norms[:, None]
    cosine /= norms
    edges = np.triu(cosine > threshold, 1)
    # an exact 0 means no shared token, which the reference also scores 0
    near = cosine >= threshold - _NEAR_THRESHOLD
    near &= cosine <= threshold + _NEAR_THRESHOLD
    near &= cosine > 0.0
    del cosine  # freed before the float adjacency is made
    for i, j in zip(*np.nonzero(np.triu(near, 1))):
        edges[i, j] = cosine_similarity(features.vectors[i], features.vectors[j]) > threshold
    edges |= edges.T
    return edges.astype(float)


def lexrank_rank(features: ClusterFeatures, config: SummarizerConfig) -> RankList:
    """Eigenvector centrality over the thresholded cosine-TF-IDF graph."""
    adjacency = _lexrank_adjacency(features, config.lexrank_threshold)
    return _graph_rank("lexrank", adjacency, features.cluster, config)


def _textrank_adjacency(features: ClusterFeatures) -> np.ndarray:
    """Edge weight: shared-type count / (log len_i + log len_j).

    Zero for sentences of length <= 1 (the normalizer would vanish) and on
    the diagonal.
    """
    sentences = features.cluster.sentences
    rows, cols, _ = features.entries
    # shared-type counts, exact integers
    weights = _cross_products(len(sentences), rows, cols, np.ones(len(cols)))
    lengths = [len(s.tokens) for s in sentences]
    # math.log, which np.log can miss by an ulp; 1.0 stands in for short
    # sentences, whose rows and columns are zeroed below
    log_len = np.array([math.log(m) if m > 1 else 1.0 for m in lengths])
    weights /= np.add.outer(log_len, log_len)
    short = np.array([m <= 1 for m in lengths])
    weights[short] = 0.0
    weights[:, short] = 0.0
    np.fill_diagonal(weights, 0.0)
    return weights


def textrank_rank(features: ClusterFeatures, config: SummarizerConfig) -> RankList:
    """Centrality over the content-word-overlap graph."""
    return _graph_rank("textrank", _textrank_adjacency(features), features.cluster, config)


def centroid_rank(features: ClusterFeatures, config: SummarizerConfig) -> RankList:
    """Sum of cluster-centroid TF-IDF weights over each sentence's types.
    ``np.bincount`` adds in input order: the centroid's weights in sentence
    order, a sentence's types in first-occurrence order."""
    rows, cols, weights = features.tfidf
    n = len(features.cluster.sentences)
    centroid = np.bincount(cols, weights, minlength=len(features.ids)) / n
    return RankList.from_scores("centroid", np.bincount(rows, centroid[cols], minlength=n))


def freqsum_rank(features: ClusterFeatures, config: SummarizerConfig) -> RankList:
    """Average cluster-frequency of a sentence's content words, added in
    text order; a sentence with no tokens scores 0.0."""
    rows, tokens = features.stream
    n = len(features.cluster.sentences)
    frequencies = np.bincount(tokens, minlength=len(features.ids))[tokens] / len(tokens)
    sums = np.bincount(rows, frequencies, minlength=n)
    return RankList.from_scores("freqsum", sums / np.maximum(np.bincount(rows, minlength=n), 1))


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


def _binomial_lls(k: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """``_binomial_ll`` of each element with ``np.log``.  An absent term
    takes the log of 1.0, so it adds an exact 0.0 and no log(0) is taken."""
    hits = k * np.log(np.where(k > 0, p, 1.0))
    return hits + (n - k) * np.log(np.where(n - k > 0, 1.0 - p, 1.0))


# Each binomial log-likelihood is a sum of terms <= 0, so with
# S = -(l1 + l2 + l3 + l4) no term, likelihood or partial sum of the ratio
# exceeds S in size.  The numpy ratio has the scalar rule's operands and
# order of operations; only its logs differ, np.log from math.log by a few
# ulps at most (say d <= 8 eps, eps = 2**-52).  A product then differs by
# (d + eps) of its size, a likelihood by (d + 2 eps) and the ratio's three
# sums add 3 eps * S, so the two ratios differ by under
# 2 * (d + 5 eps) * S <= 26 eps * S, about 5.8e-15 * S.  A ratio within
# _LLR_BAND * S of the threshold, over 300 times that, is decided by
# ``log_likelihood_ratio`` itself.
_LLR_BAND = 2e-12


def topic_words(
    features: ClusterFeatures,
    corpus_counts: Mapping[str, int],
    threshold: float,
) -> set[str]:
    """Tokens significantly over-represented in the cluster vs background.

    ``corpus_counts`` are the pooled token counts of the whole corpus,
    this cluster included; the background is the corpus minus the
    cluster's own counts.  The whole vocabulary is tested in one numpy
    pass, with the scalar rule's exact comparisons.
    """
    counts = features.counts
    n1 = sum(counts.values())
    n2 = sum(corpus_counts.values()) - n1
    if n2 == 0:
        raise ValueError("background required: no background token counts")
    if n1 == 0:
        return set()
    tokens = list(counts)
    k1 = np.fromiter(counts.values(), np.int64, len(tokens))
    k2 = np.fromiter(map(corpus_counts.get, tokens, repeat(0)), np.int64, len(tokens)) - k1
    if (k2 < 0).any():
        token = tokens[int((k2 < 0).argmax())]
        raise ValueError(f"corpus counts miss the cluster's {token!r} tokens")
    over = k1 / n1 > k2 / n2
    tokens = list(compress(tokens, over.tolist()))
    k1, k2 = k1[over], k2[over]
    p = (k1 + k2) / (n1 + n2)
    l1, l2 = _binomial_lls(k1, n1, k1 / n1), _binomial_lls(k2, n2, k2 / n2)
    l3, l4 = _binomial_lls(k1, n1, p), _binomial_lls(k2, n2, p)
    llr = 2.0 * (l1 + l2 - l3 - l4)
    near = np.abs(llr - threshold) <= -_LLR_BAND * (l1 + l2 + l3 + l4)
    result = set(compress(tokens, ((llr > threshold) & ~near).tolist()))
    for i in np.flatnonzero(near).tolist():
        if log_likelihood_ratio(int(k1[i]), n1, int(k2[i]), n2) > threshold:
            result.add(tokens[i])
    return result


def topicsum_rank(
    features: ClusterFeatures,
    corpus_counts: Mapping[str, int],
    config: SummarizerConfig,
) -> RankList:
    """Fraction of a sentence's tokens that are topic-signature words."""
    signature = topic_words(features, corpus_counts, config.topic_llr_threshold)
    rows, tokens = features.stream
    n = len(features.cluster.sentences)
    hits = np.bincount(rows, np.array([t in signature for t in features.ids])[tokens], minlength=n)
    return RankList.from_scores("topicsum", hits / np.maximum(np.bincount(rows, minlength=n), 1))


def _kl_smoothing(cluster_vocab_size: int, config: SummarizerConfig) -> float:
    if config.kl_smoothing_k is not None:
        return config.kl_smoothing_k
    return 0.0005 * cluster_vocab_size


def _math_log(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each element; ``np.log`` can miss it by an ulp."""
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


def greedykl_rank(features: ClusterFeatures, config: SummarizerConfig) -> RankList:
    """Greedy selection minimizing the summary-to-cluster KL divergence.

    Selection continues past any length budget until every sentence is
    ordered; the stored score of a sentence is minus its selection step.

    Each step scores every sentence at once and reproduces the float
    arithmetic of a plain loop exactly.  A table holds, per token and per
    count a sentence adds to it, that count's change to the token's gain.
    Every row a token can reach, one per count it can have, is computed
    once with the loop's own elementwise expression and ``math.log``
    tables; a pick copies in the rows of its own tokens' new counts.  Each
    sentence's sum starts from the running sum and adds its table cells in
    sorted token order (``np.bincount`` accumulates in input order).  The
    KL's ``mass * log(denom)`` term and its divisor are looked up by the
    candidate's summary length.
    """
    n = len(features.cluster.sentences)
    cluster_counts, ids = features.counts, features.ids
    total = sum(cluster_counts.values())
    if total == 0:
        return RankList.from_scores("greedykl", [-(i + 1) for i in range(n)])
    k = _kl_smoothing(len(cluster_counts), config)
    vocab_size = len(cluster_counts)
    counts = np.fromiter(map(cluster_counts.__getitem__, ids), np.int64, vocab_size)
    log_pc = _math_log(counts / total)
    entry_sentence, token, extra = features.entries
    # table columns: 0, then each distinct count a sentence adds to a token
    steps, entry_column = np.unique(np.append(extra, 0), return_inverse=True)
    # gain(c, t) = (c + k) * (log(c + k) - log_pc[t]), and 0 when c + k == 0
    # (k == 0, c == 0): the log entry 0.0 is then multiplied by a zero mass.
    # The entries of chosen sentences are scored too, and ignored, so a
    # count reaches a token's cluster count plus the largest step.
    mass = np.arange(int(counts.max()) + int(steps[-1]) + 1) + k
    log_mass = np.zeros(len(mass))
    log_mass[mass != 0.0] = _math_log(mass[mass != 0.0])
    # gains[first_row[t] + c, j] = gain(c + steps[j], t) for each count
    # c = 0..counts[t] that token t can have in the summary; steps[0] == 0
    first_row = np.cumsum(counts + 1) - (counts + 1)
    row_token = np.repeat(np.arange(vocab_size), counts + 1)
    have = (np.arange(len(row_token)) - first_row[row_token])[:, None] + steps
    gains = (have + k) * (log_mass[have] - log_pc[row_token][:, None])
    rows = gains - gains[:, :1]  # a row's change for each step
    zero_gains = gains[first_row, 0].tolist()
    # all-zero summary counts, summed in the cluster's first-occurrence order
    base = sum(zero_gains[ids[t]] for t in cluster_counts)
    # for each summary length t = 0..total, the KL numerator's last term
    # (t + k * V) * log(t + k * (V + 1)) and the divisor t + k * (V + 1);
    # a zero divisor (k == 0, t == 0), and the entry past the end that a
    # chosen sentence's length reaches, get (-inf, 1.0), so they score inf
    totals = np.arange(total + 1)
    divisor = totals + k * (vocab_size + 1)
    finite = divisor != 0.0
    term = np.full(total + 2, -math.inf)
    term[:-1][finite] = (totals[finite] + k * vocab_size) * _math_log(divisor[finite])
    divisor = np.append(np.where(finite, divisor, 1.0), 1.0)
    table = rows[first_row]  # every token's count starts at 0
    cells = table.reshape(-1)  # a view: row updates show through
    cell = token * len(steps) + entry_column[:-1]
    starts = np.searchsorted(entry_sentence, np.arange(n + 1))
    lengths = np.bincount(features.stream[0], minlength=n)
    # slot i first receives the running sum, then sentence i's addends
    slots = np.concatenate((np.arange(n), entry_sentence))
    addends = np.empty(len(slots))
    current = np.zeros(vocab_size, dtype=np.int64)
    current_total = 0
    current_sum = 0.0  # sum over present tokens of gain(c) - gain(0)
    scores = [0.0] * n
    for step in range(1, n + 1):
        addends[:n] = current_sum
        # every cell is in range: "clip" only spares take a checking copy
        cells.take(cell, out=addends[n:], mode="clip")
        cand_sum = np.bincount(slots, weights=addends, minlength=n)
        # a chosen sentence's total clips to the last entry
        cand_total = current_total + lengths
        kl = base + cand_sum
        kl -= term.take(cand_total, mode="clip")
        kl /= divisor.take(cand_total, mode="clip")
        # some sentence left scores finite (a divisor is 0 only while k == 0
        # and the summary is empty), so a chosen one never wins
        best = int(kl.argmin())  # the first minimum: ties go to the smaller index
        picked = slice(starts[best], starts[best + 1])
        tokens = token[picked]
        current[tokens] += extra[picked]
        table[tokens] = rows[first_row[tokens] + current[tokens]]
        current_total += int(lengths[best])
        current_sum = float(cand_sum[best])
        lengths[best] = total + 1
        scores[best] = -float(step)
    return RankList.from_scores("greedykl", scores)


@dataclass(frozen=True)
class RedundancyCap:
    """Cosine-similarity cap over one cluster's TF-IDF vectors
    (``ClusterFeatures.vectors``), shared by every extraction from it."""

    limit: float
    vectors: tuple[SentenceVector, ...]


def extract_summary(
    rank_list: RankList,
    cluster: DocumentCluster,
    budget: LengthBudget,
    redundancy_cap: RedundancyCap | None = None,
) -> Summary:
    """Greedy prefix of the rank order under the length budget.

    Ineligible (too short) sentences are skipped; with ``redundancy_cap``
    set, a sentence whose cosine similarity to any already selected
    sentence exceeds its limit is skipped too.  The walk stops at the
    first sentence that would overflow the budget, so sentences are never
    truncated.  Word cost is the whitespace word count of the raw text;
    byte cost is its UTF-8 length plus one separator byte between
    sentences.
    """
    vectors = redundancy_cap.vectors if redundancy_cap is not None else None
    chosen: list[int] = []
    words = 0
    size = 0
    for idx in rank_list.order():
        sentence = cluster.sentences[idx]
        if not sentence.eligible:
            continue
        if vectors is not None and any(
            cosine_similarity(vectors[idx], vectors[j]) > redundancy_cap.limit
            for j in chosen
        ):
            continue
        word_cost = len(sentence.raw_text.split())
        byte_cost = len(sentence.raw_text.encode("utf-8")) + (1 if chosen else 0)
        cost = word_cost if budget.kind == "words" else byte_cost
        used = words if budget.kind == "words" else size
        if used + cost > budget.limit:
            break
        chosen.append(idx)
        words += word_cost
        size += byte_cost
    if not chosen:
        logger.warning(
            "budget %s:%d fits no sentence of cluster %s; summary is empty",
            budget.kind, budget.limit, cluster.cluster_id,
        )
    return Summary(
        sentence_indices=tuple(chosen), token_count=words, byte_count=size
    )
