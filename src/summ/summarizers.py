"""The candidate summarization systems and summary extraction.

Every ranker scores *all* sentences of a cluster and returns a total
order, so downstream aggregation always works with full rank vectors.
All rankers are pure functions of ``ClusterFeatures`` (topicsum's of the
corpus counts too): reruns are bit-identical.  Each runs at one fixed,
published setting, the constants below.

Ties are broken by the smaller sentence index everywhere.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import chain, compress, repeat
from typing import Mapping, Sequence

import numpy as np

from . import log
from .corpus import DocumentCluster
from .record import FrozenRecord, TupleRecord, _tuple_new
from .sums import left_sum

CANDIDATE_SYSTEMS = (
    "lexrank",
    "textrank",
    "centroid",
    "freqsum",
    "topicsum",
    "greedykl",
)

BUDGET_KINDS = ("words", "bytes")

# lexrank keeps the sentence pairs whose cosine exceeds 0.1 (Erkan & Radev,
# JAIR 2004); lexrank and textrank walk the graph with damping 0.85
LEXRANK_THRESHOLD = 0.1
DAMPING = 0.85
POWER_ITER_TOL = 1e-6  # on the L1 change of one step
# a guard: the L1 change contracts by DAMPING, to at most 2 * 0.85**t,
# which is below POWER_ITER_TOL by step 90
POWER_ITER_MAX = 200
# topicsum's signature words: log-likelihood ratio above 10.83, the
# chi-square critical value at p = 0.001 (Lin & Hovy, COLING 2000)
TOPIC_LLR_THRESHOLD = 10.83
# greedykl smooths each count by 0.0005 per cluster vocabulary word
KL_SMOOTHING = 0.0005


class LengthBudget(FrozenRecord):
    """Summary size cap: word count or UTF-8 byte count."""

    _fields = ("kind", "limit")

    def __init__(self, kind: str, limit: int):
        self._set(kind, limit)
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


class RankList(FrozenRecord):
    """A system's scores over a cluster's sentences, and the order they
    give: higher score first, ties to the smaller sentence index.  The
    order and ``ranks`` are derived once, on first use; the scores cannot
    change, so they stay valid."""

    _fields = ("scores",)

    def __init__(self, scores: tuple[float, ...]):
        self._set(scores)
        if any(map(math.isnan, self.scores)):
            raise ValueError("scores must not contain NaN")

    @classmethod
    def from_scores(cls, scores: Sequence[float]) -> "RankList":
        return cls(tuple(map(float, scores)))

    @cached_property
    def _order(self) -> tuple[int, ...]:
        # a stable sort, so equal scores keep ascending index
        scores = self.scores
        return tuple(sorted(range(len(scores)), key=scores.__getitem__, reverse=True))

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """``ranks[i]`` is the rank of sentence i, 1 the best."""
        ranks = [0] * len(self.scores)
        for position, idx in enumerate(self._order, 1):
            ranks[idx] = position
        return tuple(ranks)

    def order(self) -> list[int]:
        """Sentence indices from best to worst."""
        return list(self._order)


class Summary(TupleRecord):
    """Extracted sentence indices in selection order.  As a one-field tuple
    it is always truthy: an empty summary has empty ``sentence_indices``."""

    __slots__ = ()
    _fields = ("sentence_indices",)

    def __new__(cls, sentence_indices: tuple[int, ...]):
        return _tuple_new(cls, (sentence_indices,))


def _power_iteration(adjacency: np.ndarray) -> np.ndarray:
    """Stationary distribution of the damped, row-normalized walk.  The
    adjacency is row-normalized in place; a row with no edges is uniform."""
    n = adjacency.shape[0]
    row_sums = adjacency.sum(axis=1)
    nonzero = row_sums > 0
    transition = np.divide(adjacency, row_sums[:, None], out=adjacency, where=nonzero[:, None])
    transition[~nonzero] = 1.0 / n
    teleport = (1.0 - DAMPING) / n
    p = np.full(n, 1.0 / n)
    for _ in range(POWER_ITER_MAX):
        p_next = DAMPING * (transition.T @ p) + teleport
        if np.abs(p_next - p).sum() <= POWER_ITER_TOL:
            return p_next
        p = p_next
    log.warning(__name__, "power iteration did not reach tol in %d steps", POWER_ITER_MAX)
    return p


def _graph_rank(name: str, adjacency: np.ndarray, cluster: DocumentCluster) -> RankList:
    n = len(cluster.sentences)
    if n == 1:
        return RankList.from_scores([1.0])
    if adjacency.sum() == 0.0:
        log.warning(
            __name__, "%s: no graph edges in cluster %s, falling back to uniform scores",
            name, cluster.cluster_id,
        )
        return RankList.from_scores([1.0 / n] * n)
    return RankList.from_scores(_power_iteration(adjacency))


class ClusterFeatures:
    """One cluster's term statistics and its exact TF-IDF cosine, each
    built on first use and kept, so that every ranker and the redundancy
    cap share one copy."""

    def __init__(self, cluster: DocumentCluster):
        self.cluster = cluster

    @cached_property
    def ids(self) -> dict[str, int]:
        """An id per token, numbering the sorted vocabulary; keys in first-occurrence order."""
        ids = dict.fromkeys(chain.from_iterable(s.tokens for s in self.cluster.sentences))
        ids.update(zip(sorted(ids), range(len(ids))))  # keeps the key order
        return ids

    @cached_property
    def counts(self) -> np.ndarray:
        """Token counts over the cluster, int64, indexed by token id."""
        return np.bincount(self.stream[1], minlength=len(self.ids))

    @cached_property
    def lengths(self) -> np.ndarray:
        """Tokens per sentence, int64."""
        sentences = self.cluster.sentences
        return np.fromiter((len(s.tokens) for s in sentences), np.int64, len(sentences))

    @cached_property
    def stream(self) -> tuple[np.ndarray, np.ndarray]:
        """Every token in text order, as (sentence, token id) int64 arrays."""
        sentences, lengths = self.cluster.sentences, self.lengths
        tokens = chain.from_iterable(s.tokens for s in sentences)
        token = np.fromiter(map(self.ids.__getitem__, tokens), np.int64, int(lengths.sum()))
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
    def vectors(self) -> tuple[dict[int, float], ...]:
        """``tfidf`` as one {token id: weight} dict per sentence, for
        ``cosine_similarity``; zero weights are never stored."""
        rows, cols, weights = self.tfidf
        vectors: list[dict[int, float]] = [{} for _ in self.cluster.sentences]
        for row, col, weight in zip(rows.tolist(), cols.tolist(), weights.tolist()):
            vectors[row][col] = weight
        return tuple(vectors)

    @cached_property
    def norms(self) -> tuple[float, ...]:
        """Each sentence's TF-IDF norm, ``sqrt(fsum(w * w))``, or 1.0 for a
        sentence with no weights, so that dividing by it keeps 0 at 0."""
        rows, _, weights = self.tfidf
        squares = (weights * weights).tolist()
        bounds = np.searchsorted(rows, np.arange(len(self.cluster.sentences) + 1)).tolist()
        return tuple(
            math.sqrt(math.fsum(squares[a:b])) or 1.0 for a, b in zip(bounds, bounds[1:])
        )


def cosine_similarity(features: ClusterFeatures, i: int, j: int) -> float:
    """Cosine of sentences i and j's TF-IDF vectors; 0 when either is empty.

    Sums use ``math.fsum`` so the result is independent of key order,
    which keeps the similarity exactly symmetric.
    """
    a, b = features.vectors[i], features.vectors[j]
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = math.fsum(w * b[t] for t, w in a.items() if t in b)
    if dot == 0.0:
        return 0.0
    norms = features.norms
    return min(1.0, dot / (norms[i] * norms[j]))


def tfidf_vectors(features: ClusterFeatures) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TF-IDF weights as sparse (sentence, token id, weight) arrays, in
    ``features.first_entries`` order.  tf is the within-sentence count;
    idf = ln(D / df) by ``math.log``, with document frequency taken over the
    cluster's own documents, its sentences' distinct ``doc_id``s (numbered
    by first appearance).  Tokens present in every document are dropped."""
    cluster, vocab_size = features.cluster, len(features.ids)
    rows, cols, counts = features.first_entries
    doc_ids = [s.doc_id for s in cluster.sentences]
    doc_index = {d: i for i, d in enumerate(dict.fromkeys(doc_ids))}
    docs = np.array([doc_index[d] for d in doc_ids], dtype=np.int64)
    width, n_docs = max(vocab_size, 1), len(doc_index)
    pairs, _ = np.unique(docs[rows] * width + cols, return_counts=True)
    df = np.bincount(pairs % width, minlength=vocab_size)  # >= 1 for every token id
    idf = _math_log(n_docs / np.arange(1, n_docs + 1))[df - 1]  # one log per df value
    kept = df[cols] < n_docs
    return rows[kept], cols[kept], counts[kept] * idf[cols[kept]]


_ROWS = 256  # the most rows of an n x n result made at a time


def _chunk_rows(n: int) -> int:
    """Rows of an n x n result made at a time: all n up to ``_ROWS``,
    else an eighth of n, at most ``_ROWS``, so that a chunk's n-wide
    temporary adds about an eighth of the result, not most of it."""
    return n if n <= _ROWS else min(_ROWS, -(-n // 8))


def _cross_products(
    n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray | None = None
) -> np.ndarray:
    """``M @ M.T`` off the diagonal, for the n-row ``M[rows, cols] = values``
    (1 where ``values`` is None), from the pairs of entries that share a
    column.

    The diagonal is left incomplete: a column with a single entry only
    reaches the diagonal, so it is dropped.  Each other entry pairs with
    every entry of its column, itself included, and the pair (a, b) adds
    ``values[a] * values[b]`` at cell (rows[a], rows[b]) through
    ``np.add.at``, which adds in input order, so a cell sums its products
    in column order.  The pairs are made a chunk of at most
    max(n * n // 8, 2 ** 12) pairs (and one entry's) at a time, straight
    into the one n x n result: a chunk's pair-length arrays stay within
    three eighths of it.  So memory grows with n * n, not with the number
    of columns or pairs.  An integer-valued M gives exact integers.
    Otherwise, the product of two rows that share d columns adds d terms:
    it is within d * 2**-53 * (the sum of the terms' magnitudes) of the
    exact sum, to first order (the dot-product error bound).
    """
    products = np.zeros(n * n)
    df = np.bincount(cols)
    paired = np.flatnonzero(df[cols] >= 2)
    if not len(paired):
        return products.reshape(n, n)
    # any order within a column: a cell gets one product from each column
    paired = paired[np.argsort(cols[paired])]
    rows, cols = rows[paired], cols[paired]
    if values is not None:
        values = values[paired]
    df[df < 2] = 0
    reps = df[cols]
    ends = np.cumsum(reps)
    # pair p of entry e is with entry p - (ends[e] - reps[e]) of e's column
    shift = (np.cumsum(df) - df)[cols] - (ends - reps)
    budget = max(n * n // 8, 1 << 12)
    cuts = np.searchsorted(ends, np.arange(budget, ends[-1], budget), side="right").tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(cols)]):
        partner = np.repeat(shift[lo:hi], reps[lo:hi])
        partner += np.arange(ends[lo] - reps[lo], ends[hi - 1])
        weights = 1.0
        if values is not None:
            weights = np.repeat(values[lo:hi], reps[lo:hi])
            weights *= values[partner]
        cells = rows[partner]
        del partner
        cells += np.repeat(rows[lo:hi] * n, reps[lo:hi])
        np.add.at(products, cells, weights)
        del cells, weights  # freed before the next chunk's pairs are made
    return products.reshape(n, n)


# A cosine from ``_cross_products`` divided by the two norms is within
# (d + 2) * 2**-53 of the exact cosine, d the tokens the sentences share,
# since TF-IDF weights are positive and their products add up to at most
# the norms' product; the fsum-based ``cosine_similarity`` is within
# 3 * 2**-53 of it.  So the two differ by less than 1.2e-13 for d <= 1 000,
# in any order the terms are added.  Pairs this close to the threshold are
# decided by ``cosine_similarity`` itself.
_NEAR_THRESHOLD = 1e-9


def _lexrank_adjacency(features: ClusterFeatures, threshold: float) -> np.ndarray:
    """0/1 graph of the sentence pairs whose cosine exceeds ``threshold``.

    The products are thresholded in place, ``_chunk_rows(n)`` rows at a
    time: a pair i < j is decided from its cell (i, j), and cell (j, i)
    copies that decision, which an earlier chunk or this one's own
    diagonal block has made."""
    rows, cols, weights = features.tfidf
    n = len(features.cluster.sentences)
    graph = _cross_products(n, rows, cols, weights)
    norms = np.array(features.norms)
    step = _chunk_rows(n)
    below = np.tri(step, k=-1, dtype=bool)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        upper = graph[lo:hi, lo:]  # the block's columns from its first row on
        upper /= norms[lo:hi, None]
        upper /= norms[lo:]
        # an exact 0 means no shared token, which the reference also scores 0
        near = upper >= threshold - _NEAR_THRESHOLD
        near &= upper <= threshold + _NEAR_THRESHOLD
        near &= upper > 0.0
        near_rows, near_cols = np.divmod(np.flatnonzero(near), n - lo)
        np.greater(upper, threshold, out=upper)
        for i, j in zip((near_rows + lo).tolist(), (near_cols + lo).tolist()):
            if i < j:
                graph[i, j] = cosine_similarity(features, i, j) > threshold
        square = graph[lo:hi, lo:hi]
        np.copyto(square, square.T, where=below[:hi - lo, :hi - lo])
        np.fill_diagonal(square, 0.0)
        graph[lo:hi, :lo] = graph[:lo, lo:hi].T
    return graph


def lexrank_rank(features: ClusterFeatures) -> RankList:
    """Eigenvector centrality over the thresholded cosine-TF-IDF graph."""
    adjacency = _lexrank_adjacency(features, LEXRANK_THRESHOLD)
    return _graph_rank("lexrank", adjacency, features.cluster)


def _textrank_adjacency(features: ClusterFeatures) -> np.ndarray:
    """Edge weight: shared-type count / (log len_i + log len_j).

    Zero for sentences of length <= 1 (the normalizer would vanish) and on
    the diagonal.
    """
    rows, cols, _ = features.entries
    lengths = features.lengths
    # shared-type counts, exact integers
    weights = _cross_products(len(lengths), rows, cols)
    # math.log, which np.log can miss by an ulp; 1.0 stands in for short
    # sentences, whose rows and columns are zeroed below
    log_len = np.array([math.log(m) if m > 1 else 1.0 for m in lengths.tolist()])
    step = _chunk_rows(len(log_len))
    for lo in range(0, len(log_len), step):
        weights[lo:lo + step] /= np.add.outer(log_len[lo:lo + step], log_len)
    short = lengths <= 1
    weights[short] = 0.0
    weights[:, short] = 0.0
    np.fill_diagonal(weights, 0.0)
    return weights


def textrank_rank(features: ClusterFeatures) -> RankList:
    """Centrality over the content-word-overlap graph."""
    return _graph_rank("textrank", _textrank_adjacency(features), features.cluster)


def centroid_rank(features: ClusterFeatures) -> RankList:
    """Sum of cluster-centroid TF-IDF weights over each sentence's types.
    ``np.bincount`` adds in input order: the centroid's weights in sentence
    order, a sentence's types in first-occurrence order."""
    rows, cols, weights = features.tfidf
    n = len(features.cluster.sentences)
    centroid = np.bincount(cols, weights, minlength=len(features.ids)) / n
    return RankList.from_scores(np.bincount(rows, centroid[cols], minlength=n))


def freqsum_rank(features: ClusterFeatures) -> RankList:
    """Average cluster-frequency of a sentence's content words, added in
    text order; a sentence with no tokens scores 0.0."""
    rows, tokens = features.stream
    lengths = features.lengths
    frequencies = features.counts[tokens] / len(tokens)
    sums = np.bincount(rows, frequencies, minlength=len(lengths))
    return RankList.from_scores(sums / np.maximum(lengths, 1))


def _binomial_lls(k: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """log L(p; k, n) of each element, with the 0*log(0) := 0 convention
    and logs by ``math.log``, one table of them for every p and 1 - p.  An
    absent term takes the log of 1.0, so it adds an exact 0.0 and no log(0)
    is taken."""
    log_p, log_q = _distinct_log(
        np.stack((np.where(k > 0, p, 1.0), np.where(n - k > 0, 1.0 - p, 1.0)))
    )
    return k * log_p + (n - k) * log_q


class CorpusCounts(TupleRecord):
    """TopicSum's pooled corpus tokens, the ranked cluster's included:
    ``total`` tokens, ``counts[t]`` of them ``t``.  ``counts`` need only
    hold the ranked cluster's own tokens."""

    __slots__ = ()
    _fields = ("counts", "total")

    def __new__(cls, counts: Mapping[str, int], total: int):
        return _tuple_new(cls, (counts, total))


def topic_words(
    features: ClusterFeatures,
    corpus: CorpusCounts,
    threshold: float,
) -> set[str]:
    """Tokens significantly over-represented in the cluster vs background.

    The background is the corpus minus the cluster's own counts.  The
    whole vocabulary is tested in one numpy pass that is the scalar
    log-likelihood ratio exactly: the same ``int / int`` divisions,
    operations in the same order, logs by ``math.log``.
    """
    ids = features.ids
    n1 = len(features.stream[1])
    n2 = corpus.total - n1
    if n2 == 0:
        raise ValueError("background required: no background token counts")
    if n1 == 0:
        return set()
    tokens = list(ids)  # first-occurrence order, so an error names the first short token
    k1 = features.counts[np.fromiter(ids.values(), np.int64, len(tokens))]
    k2 = np.fromiter(map(corpus.counts.get, tokens, repeat(0)), np.int64, len(tokens)) - k1
    if (k2 < 0).any():
        token = tokens[int((k2 < 0).argmax())]
        raise ValueError(f"corpus counts miss the cluster's {token!r} tokens")
    over = k1 / n1 > k2 / n2
    tokens = list(compress(tokens, over.tolist()))
    k1, k2 = k1[over], k2[over]
    p = (k1 + k2) / (n1 + n2)
    l1, l2, l3, l4 = _binomial_lls(
        np.stack((k1, k2, k1, k2)),
        np.array([[n1], [n2], [n1], [n2]]),
        np.stack((k1 / n1, k2 / n2, p, p)),
    )
    llr = 2.0 * (l1 + l2 - l3 - l4)
    return set(compress(tokens, (llr > threshold).tolist()))


def topicsum_rank(features: ClusterFeatures, corpus: CorpusCounts) -> RankList:
    """Fraction of a sentence's tokens that are topic-signature words."""
    signature = topic_words(features, corpus, TOPIC_LLR_THRESHOLD)
    rows, tokens = features.stream
    lengths = features.lengths
    in_signature = np.zeros(len(features.ids), dtype=bool)
    in_signature[np.fromiter(map(features.ids.__getitem__, signature), np.int64)] = True
    hits = np.bincount(rows, in_signature[tokens], minlength=len(lengths))
    return RankList.from_scores(hits / np.maximum(lengths, 1))


def _math_log(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each element; ``np.log`` can miss it by an ulp."""
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


def _distinct_log(values: np.ndarray) -> np.ndarray:
    """``_math_log`` of each element, one ``math.log`` per distinct value."""
    distinct, inverse = np.unique(values.ravel(), return_inverse=True)
    return _math_log(distinct)[inverse].reshape(values.shape)


# greedykl drops the chosen sentences' entries from its gather once they
# are a quarter of it (so O(log n) times a cluster) and at least 512: a
# compaction costs a few numpy calls, about what gathering a few hundred
# entries does, so a short cluster's gather (many-short's hold 276-377
# entries) is never compacted
_GREEDYKL_DEAD = 0.25
_GREEDYKL_MIN = 512


def greedykl_rank(features: ClusterFeatures) -> RankList:
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
    candidate's summary length.  The chosen sentences' entries leave the
    gather by the ``_GREEDYKL_DEAD`` rule; the rest keep their order, so
    every sum keeps its bits, and a chosen sentence still scores inf.
    """
    n = len(features.cluster.sentences)
    counts, total = features.counts, len(features.stream[1])
    if total == 0:
        return RankList.from_scores([-(i + 1) for i in range(n)])
    vocab_size = len(counts)
    k = KL_SMOOTHING * vocab_size  # > 0: the cluster has a token
    log_pc = _math_log(counts / total)
    entry_sentence, token, extra = features.entries
    # table columns: 0, then each distinct count a sentence adds to a token
    steps, entry_column = np.unique(np.append(extra, 0), return_inverse=True)
    # gain(c, t) = (c + k) * (log(c + k) - log_pc[t]).  The entries of
    # chosen sentences are scored too, and ignored, so a count reaches a
    # token's cluster count plus the largest step.
    mass = np.arange(int(counts.max()) + int(steps[-1]) + 1) + k
    log_mass = _math_log(mass)
    # gains[first_row[t] + c, j] = gain(c + steps[j], t) for each count
    # c = 0..counts[t] that token t can have in the summary; steps[0] == 0
    first_row = np.cumsum(counts + 1) - (counts + 1)
    row_token = np.repeat(np.arange(vocab_size), counts + 1)
    have = (np.arange(len(row_token)) - first_row[row_token])[:, None] + steps
    gains = (have + k) * (log_mass[have] - log_pc[row_token][:, None])
    rows = gains - gains[:, :1]  # a row's change for each step
    zero_gains = gains[first_row, 0].tolist()
    # all-zero summary counts, summed in the cluster's first-occurrence order
    base = left_sum(map(zero_gains.__getitem__, features.ids.values()))
    # for each summary length t = 0..total, the KL numerator's last term
    # (t + k * V) * log(t + k * (V + 1)) and the divisor t + k * (V + 1);
    # the entry past the end, which a chosen sentence's length reaches,
    # gets (-inf, 1.0), so it scores inf
    totals = np.arange(total + 1)
    divisor = totals + k * (vocab_size + 1)
    term = np.append((totals + k * vocab_size) * _math_log(divisor), -math.inf)
    divisor = np.append(divisor, 1.0)
    table = rows[first_row]  # every token's count starts at 0
    cells = table.reshape(-1)  # a view: row updates show through
    starts = np.searchsorted(entry_sentence, np.arange(n + 1)).tolist()
    picks = [slice(a, b) for a, b in zip(starts, starts[1:])]
    lengths = features.lengths.copy()  # a chosen sentence's entry is overwritten
    # the gathered entries: each one's table cell and its sentence; slot i
    # first receives the running sum, then sentence i's addends
    cell = token * len(steps) + entry_column[:-1]
    slots = np.concatenate((np.arange(n), entry_sentence))
    addends = np.empty(len(slots))
    head = n  # slots that receive the running sum: the sentences left at the last compaction
    dead = 0  # gathered entries of chosen sentences
    row_at = first_row.copy()  # each token's row at its summary count
    current_total = 0
    current_sum = 0.0  # sum over present tokens of gain(c) - gain(0)
    scores = [0.0] * n
    for step in range(1, n + 1):
        addends[:head] = current_sum
        # every cell is in range: "clip" only spares take a checking copy
        cells.take(cell, out=addends[head:], mode="clip")
        cand_sum = np.bincount(slots, weights=addends, minlength=n)
        kl = base + cand_sum
        # a chosen sentence's length clips to the last entry
        kl -= term[current_total:].take(lengths, mode="clip")
        kl /= divisor[current_total:].take(lengths, mode="clip")
        # every sentence left scores finite, so a chosen one never wins
        best = int(kl.argmin())  # the first minimum: ties go to the smaller index
        picked = picks[best]
        tokens = token[picked]
        row_at[tokens] += extra[picked]
        table[tokens] = rows.take(row_at[tokens], axis=0)
        current_total += int(lengths[best])
        current_sum = float(cand_sum[best])
        lengths[best] = total + 1
        scores[best] = -float(step)
        dead += len(tokens)
        if dead > _GREEDYKL_DEAD * len(cell) and dead >= _GREEDYKL_MIN:
            live = lengths[slots] <= total
            cell = cell[live[head:]]
            slots = slots[live]
            addends = addends[:len(slots)]
            head, dead = n - step, 0
    return RankList.from_scores(scores)


def extract_summary(
    rank_list: RankList,
    features: ClusterFeatures,
    budget: LengthBudget,
    cap: float | None = None,
) -> Summary:
    """Greedy prefix of the rank order under the length budget.

    Ineligible (too short) sentences are skipped; with ``cap`` set, a
    sentence whose TF-IDF cosine (``cosine_similarity``) to any already
    selected sentence exceeds it is skipped too.  The walk stops at the
    first sentence that would overflow the budget, so sentences are never
    truncated.  Word cost is the whitespace word count of the raw text;
    byte cost is its UTF-8 length plus one separator byte between
    sentences.
    """
    cluster = features.cluster
    chosen: list[int] = []
    used = 0
    for idx in rank_list.order():
        sentence = cluster.sentences[idx]
        if not sentence.eligible:
            continue
        if cap is not None and any(cosine_similarity(features, idx, j) > cap for j in chosen):
            continue
        if budget.kind == "words":
            cost = len(sentence.raw_text.split())
        else:
            cost = len(sentence.raw_text.encode("utf-8")) + (1 if chosen else 0)
        if used + cost > budget.limit:
            break
        chosen.append(idx)
        used += cost
    return Summary(sentence_indices=tuple(chosen))
