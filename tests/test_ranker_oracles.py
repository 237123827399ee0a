"""Differential tests: the vectorized rankers against plain-loop references.

The reference implementations below are the original pure-Python loops of
``greedykl_rank``, ``lexrank_rank``, ``textrank_rank``, ``centroid_rank``
and ``freqsum_rank``.  The package's numpy rankers must reproduce their
scores and ranks exactly (``==``, no tolerance), since reports are
compared byte for byte.  Likewise ``topicsum_rank``, given corpus totals,
must reproduce the original leave-one-out background path and the
scalar log-likelihood ratio of ``tests/llr_reference.py``,
``ClusterFeatures.entries``, ``ids`` and ``counts`` the ``Counter``s they
replaced, and ``ClusterFeatures.vectors`` the string-keyed TF-IDF vectors
of ``tests/tfidf_reference.py``, whose cosine the lexrank reference uses.
``_cross_products``, which lexrank and textrank build their graphs from,
must give the plain-loop ``M @ M.T`` off the diagonal from the pairs of
entries that share a column, one chunk of pairs or several: exactly for
textrank's 0/1 M, within the error bound its docstring states for
lexrank's TF-IDF weights.  The rankers run at their fixed settings; the
lexrank graph (``_lexrank_adjacency``) and the topic signature
(``topic_words``) are also checked at other thresholds, the realised
cosines and ratios among them.
"""

import math
import operator
from collections import Counter
from functools import reduce
from typing import Sequence
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from summ.corpus import DocumentCluster
from summ import summarizers
from summ.harness import _token_counts
from summ.sums import left_sum
from summ.summarizers import (
    DAMPING,
    KL_SMOOTHING,
    LEXRANK_THRESHOLD,
    POWER_ITER_MAX,
    POWER_ITER_TOL,
    TOPIC_LLR_THRESHOLD,
    ClusterFeatures,
    CorpusCounts,
    RankList,
    _graph_rank,
    _lexrank_adjacency,
    _power_iteration,
    centroid_rank,
    freqsum_rank,
    greedykl_rank,
    lexrank_rank,
    textrank_rank,
    topic_words,
    topicsum_rank,
)

from llr_reference import log_likelihood_ratio
from tfidf_reference import cosine_similarity, tfidf_vectors
from word_clusters import word_cluster


def reference_cosines(cluster: DocumentCluster) -> dict[tuple[int, int], float]:
    """The oracle cosine of every sentence pair i < j."""
    vectors = tfidf_vectors(cluster)
    n = len(vectors)
    return {
        (i, j): cosine_similarity(vectors[i], vectors[j])
        for i in range(n) for j in range(i + 1, n)
    }


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
    adjacency = reference_lexrank_graph(cluster, LEXRANK_THRESHOLD)
    return _graph_rank("lexrank", adjacency, cluster)


def assert_graph_identical(cluster, threshold, cosines=None):
    """``_lexrank_adjacency`` at ``threshold`` is the reference graph, with
    exact ``==``."""
    got = _lexrank_adjacency(ClusterFeatures(cluster), threshold)
    want = reference_lexrank_graph(cluster, threshold, cosines)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), threshold


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
    return _graph_rank("textrank", adjacency, cluster)


def reference_greedykl_rank(cluster: DocumentCluster) -> RankList:
    """Greedy selection minimizing the summary-to-cluster KL divergence.

    Selection continues past any length budget until every sentence is
    ordered; the stored score of a sentence is minus its selection step.
    """
    sentences = cluster.sentences
    n = len(sentences)
    cluster_counts = Counter()
    for sentence in sentences:
        cluster_counts.update(sentence.tokens)
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


def greedykl_compactions(cluster: DocumentCluster, share: float, least: int) -> list[int]:
    """The steps after which ``greedykl_rank`` compacts its gather, by its
    rule (the chosen sentences' entries exceed ``share`` of the gathered
    ones and number at least ``least``), replayed on the reference's picks."""
    entries = [len(set(s.tokens)) for s in cluster.sentences]
    gathered, dead, steps = sum(entries), 0, []
    for step, idx in enumerate(reference_greedykl_rank(cluster).order(), 1):
        dead += entries[idx]
        if dead > share * gathered and dead >= least:
            gathered, dead = gathered - dead, 0
            steps.append(step)
    return steps


def assert_greedykl_identical(cluster):
    got, want = greedykl_rank(ClusterFeatures(cluster)), reference_greedykl_rank(cluster)
    assert got.scores == want.scores
    assert got.ranks == want.ranks


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
    counts = Counter(t for sentence in cluster.sentences for t in sentence.tokens)
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


PAIRS = {
    "greedykl": (greedykl_rank, reference_greedykl_rank),
    "lexrank": (lexrank_rank, reference_lexrank_rank),
    "textrank": (textrank_rank, reference_textrank_rank),
    "centroid": (centroid_rank, reference_centroid_rank),
    "freqsum": (freqsum_rank, reference_freqsum_rank),
}
VOCAB = ["ash", "birch", "cedar", "dune", "elm", "fern", "gale", "haze", "iris"]


def assert_identical(cluster):
    for name, (ranker, reference) in PAIRS.items():
        got, want = ranker(ClusterFeatures(cluster)), reference(cluster)
        assert got.scores == want.scores, name
        assert got.ranks == want.ranks, name
    # the same weights, each sentence's tokens in the same order
    features = ClusterFeatures(cluster)
    vocab = sorted(features.ids)
    got = [[(vocab[t], w) for t, w in v.items()] for v in features.vectors]
    assert got == [list(v.weights.items()) for v in tfidf_vectors(cluster)]


# A sentence is 0-7 words from a small vocabulary, so clusters have
# duplicate sentences, empty and one-token sentences, and many shared types;
# "." tokenizes to nothing.
sentence_text = st.lists(st.sampled_from(VOCAB), max_size=7).map(
    lambda words: " ".join(words) or "."
)
cluster_docs = st.lists(
    st.lists(sentence_text, min_size=1, max_size=6), min_size=1, max_size=4
)
# lexrank graph thresholds: 0 links every pair that shares a weighted
# token, 1 links none
thresholds = st.sampled_from([0.0, LEXRANK_THRESHOLD, 0.3, 0.5, 1.0])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=cluster_docs, threshold=thresholds)
def test_random_clusters_match_references(docs, threshold):
    cluster = word_cluster(docs)
    assert_identical(cluster)
    assert_graph_identical(cluster, threshold)


EDGE_CASES = {
    "single_sentence": [["ash birch cedar"]],
    "single_token_sentence": [["ash"]],
    "empty_sentence_only": [["."]],
    "all_sentences_empty": [[".", "..."], ["!"]],
    "duplicates": [["ash birch cedar", "ash birch cedar"], ["ash birch cedar", "dune"]],
    "zero_and_one_token_mix": [[".", "ash", "ash birch"], ["birch", "ash birch ash"]],
    "no_shared_types": [["ash birch"], ["cedar dune"], ["elm fern"]],
    "one_repeated_type": [["ash ash", "ash"], ["ash ash ash"]],
    # a type counted 1, 2, 3 and 5 times in a sentence: gain-table steps 0-3 and 5
    "type_repeated_five_times": [
        ["ash ash ash ash ash birch", "ash birch"], ["birch birch ash", "cedar ash ash ash"],
    ],
    # leading empty sentences, which greedykl's first step scores too
    "empty_sentences_first": [[".", "!", "ash birch ash"], ["...", "birch cedar"]],
    # every token is in every document: no TF-IDF weight at all
    "single_document": [["ash birch ash", ".", "cedar birch dune"]],
    # "ash" is in every document and drops out of each vector
    "token_in_every_document": [
        ["ash birch ash", "cedar"], ["dune ash", "."], ["elm fern ash birch fern"],
    ],
    # greedykl's base sum, added in sorted-id order instead of first-occurrence
    # order, rounds differently here and changes the picks
    "base_sum_order": [
        ["w0"], ["w7 w1 w4 w11 w5 w7 w2", "w10 w2 w3 w11 w9 w10 w6"], [".", "w0 w2"],
    ],
}


@pytest.mark.parametrize("docs", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
@pytest.mark.parametrize(
    "threshold", [LEXRANK_THRESHOLD, 0.0], ids=["default", "threshold0"]
)
def test_edge_cases_match_references(docs, threshold):
    cluster = word_cluster(docs)
    assert_identical(cluster)
    assert_graph_identical(cluster, threshold)


def reference_entries(cluster: DocumentCluster, order=sorted) -> list[list[int]]:
    """(sentence, token id, count) columns from per-sentence Counters, each
    sentence's tokens in ``order``."""
    vocab = sorted({t for s in cluster.sentences for t in s.tokens})
    ids = {t: i for i, t in enumerate(vocab)}
    entries = [
        (row, ids[token], count)
        for row, sentence in enumerate(cluster.sentences)
        for token, count in order(Counter(sentence.tokens).items())
    ]
    return [[entry[c] for entry in entries] for c in range(3)]


def assert_entries_identical(cluster):
    features = ClusterFeatures(cluster)
    for got, order in [(features.entries, sorted), (features.first_entries, list)]:
        assert [column.dtype for column in got] == [np.int64] * 3
        assert [column.tolist() for column in got] == reference_entries(cluster, order)
    # the shared vocabulary: ids number the sorted tokens, keys keep the
    # first-occurrence order of a Counter, and counts are indexed by id
    counts = Counter(t for sentence in cluster.sentences for t in sentence.tokens)
    vocab = sorted(counts)
    assert list(features.ids) == list(counts)
    assert list(features.ids.values()) == list(map(vocab.index, counts))
    assert features.counts.dtype == np.int64
    assert features.counts.tolist() == [counts[t] for t in vocab]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=cluster_docs)
def test_random_cluster_entries_match_reference(docs):
    assert_entries_identical(word_cluster(docs))


@pytest.mark.parametrize("docs", [
    EDGE_CASES["all_sentences_empty"],
    EDGE_CASES["zero_and_one_token_mix"],
    EDGE_CASES["type_repeated_five_times"],
    [["ash birch", "."], [".", "cedar ash"], ["..."]],
], ids=["no_tokens", "zero_and_one_token_mix", "repeated_type", "empty_sentences"])
def test_edge_cluster_entries_match_reference(docs):
    assert_entries_identical(word_cluster(docs))


def test_threshold_at_realised_cosine():
    # a threshold equal to a cosine the cluster realises puts that pair at
    # the decision boundary, where the edge is decided by the exact
    # reference similarity; so does the threshold one ulp either side
    docs = [
        ["ash birch cedar", "ash dune elm elm"],
        ["birch cedar fern", "gale haze"],
        ["ash iris", "cedar dune gale"],
        ["elm fern haze", "ash birch cedar"],
        ["iris gale iris", "birch elm"],
    ]
    cluster = word_cluster(docs)
    cosines = reference_cosines(cluster)
    realised = sorted(set(cosines.values()) - {0.0})
    assert len(realised) > 5
    for value in realised:
        below, above = math.nextafter(value, 0.0), math.nextafter(value, 2.0)
        for threshold in (below, value, above):
            assert_graph_identical(cluster, threshold, cosines)


def test_long_cluster_matches_references():
    # many blocks of vocabulary columns and a few hundred greedy steps
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(700)]
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    docs = []
    for _ in range(6):
        doc = [
            " ".join(rng.choice(vocab, size=int(rng.integers(0, 18)), p=weights))
            or "."
            for _ in range(25)
        ]
        docs.append(doc + doc[:2])  # copied lead sentences give exact ties
    assert_identical(word_cluster(docs))


def reference_power_iteration(adjacency: np.ndarray) -> np.ndarray:
    """Stationary distribution of the damped, row-normalized walk."""
    n = adjacency.shape[0]
    row_sums = adjacency.sum(axis=1)
    transition = np.full((n, n), 1.0 / n)
    nonzero = row_sums > 0
    transition[nonzero] = adjacency[nonzero] / row_sums[nonzero, None]
    teleport = (1.0 - DAMPING) / n
    p = np.full(n, 1.0 / n)
    for _ in range(POWER_ITER_MAX):
        p_next = DAMPING * (transition.T @ p) + teleport
        if np.abs(p_next - p).sum() <= POWER_ITER_TOL:
            return p_next
        p = p_next
    return p


@pytest.mark.parametrize("n", [2, 5, 64, 300])
def test_power_iteration_in_place_matches_reference(n):
    # weighted graphs with isolated nodes, whose rows become uniform
    rng = np.random.default_rng(n)
    weights = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.3), 1)
    weights[:, rng.random(n) < 0.2] = 0.0
    weights = weights + weights.T
    weights[rng.random(n) < 0.2] = 0.0
    want = reference_power_iteration(weights)
    assert _power_iteration(weights.copy()).tolist() == want.tolist()


def reference_background_counts(
    clusters: Sequence[DocumentCluster],
) -> list[Counter]:
    """Leave-one-out pooled token counts for each cluster."""
    per_cluster = []
    total = Counter()
    for cluster in clusters:
        counts = Counter()
        for sentence in cluster.sentences:
            counts.update(sentence.tokens)
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
    counts = Counter()
    for sentence in cluster.sentences:
        counts.update(sentence.tokens)
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


def assert_topicsum_identical(corpus_docs, threshold):
    """Over each cluster of the corpus, ``topic_words`` at ``threshold`` and
    ``topicsum_rank`` match their leave-one-out references, or both raise
    for want of a background."""
    clusters = [word_cluster(docs) for docs in corpus_docs]
    counts = _token_counts(s.tokens for c in clusters for s in c.sentences)
    corpus = CorpusCounts(counts, counts.total())
    for cluster, background in zip(clusters, reference_background_counts(clusters)):
        features = ClusterFeatures(cluster)
        try:
            want = reference_topicsum_rank(cluster, background)
        except ValueError as exc:
            assert "background required" in str(exc)
            with pytest.raises(ValueError, match="background required"):
                topicsum_rank(features, corpus)
            with pytest.raises(ValueError, match="background required"):
                topic_words(features, corpus, threshold)
            continue
        got = topicsum_rank(features, corpus)
        assert got.scores == want.scores
        assert got.ranks == want.ranks
        signature = topic_words(features, corpus, threshold)
        assert signature == reference_topic_words(cluster, background, threshold)


def own_words(c):
    """Words that only cluster ``c`` of a corpus uses."""
    return [f"{w}{c}" for w in ("kelp", "moss", "reed")]


@st.composite
def topic_corpora(draw):
    # clusters share VOCAB and each adds words no other cluster uses, so
    # tokens unique to one cluster, shared tokens and 1-cluster corpora
    # (no background at all) all occur
    n_clusters = draw(st.integers(1, 4))
    corpus = []
    for c in range(n_clusters):
        words = st.sampled_from(VOCAB + own_words(c))
        text = st.lists(words, max_size=9).map(lambda ws: " ".join(ws) or ".")
        corpus.append(draw(st.lists(
            st.lists(text, min_size=1, max_size=5), min_size=1, max_size=3
        )))
    return corpus


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corpus_docs=topic_corpora(),
    threshold=st.sampled_from([0.5, 2.0, 3.84, 10.83]),
)
def test_topicsum_corpus_totals_match_leave_one_out(corpus_docs, threshold):
    assert_topicsum_identical(corpus_docs, threshold)


TOPIC_CORPORA = {
    "one_cluster": [[["ash birch cedar", "ash dune"]]],
    "disjoint_vocabularies": [[["kelp0 moss0 reed0"]], [["kelp1 moss1"]]],
    "cluster_is_whole_vocabulary": [[["ash ash birch"]], [["ash birch", "birch"]]],
    "empty_cluster_tokens": [[[".", "..."]], [["ash birch cedar"]]],
    "only_empty_tokens": [[["."]], [["!"]]],
}


@pytest.mark.parametrize(
    "corpus_docs", list(TOPIC_CORPORA.values()), ids=list(TOPIC_CORPORA)
)
def test_topicsum_edge_corpora_match_leave_one_out(corpus_docs):
    assert_topicsum_identical(corpus_docs, 0.5)


def zipf_corpus(seed: int, clusters: int, docs: int, sentences: int) -> list:
    """``clusters`` clusters of ``docs`` x ``sentences`` sentences of 0-24
    words, drawn by a Zipf law over 400 words that each cluster rotates, so
    the clusters share a vocabulary but favour different words, and the
    frequent words repeat within sentences."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(400)]
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    corpus = []
    for c in range(clusters):
        p = np.roll(weights, 37 * c)
        p /= p.sum()
        corpus.append([
            [
                " ".join(rng.choice(vocab, size=int(rng.integers(0, 25)), p=p)) or "."
                for _ in range(sentences)
            ]
            for _ in range(docs)
        ])
    return corpus


def test_duc_scale_greedykl_matches_reference():
    # a DUC-sized cluster: 200 sentences, hundreds of distinct words, and
    # tokens repeated within a sentence, so every table row and step is used
    cluster = word_cluster(zipf_corpus(3, 1, 10, 20)[0])
    assert len(cluster.sentences) == 200
    assert int(ClusterFeatures(cluster).entries[2].max()) >= 3
    # at the package's own rule, the gather is compacted several times
    rule = summarizers._GREEDYKL_DEAD, summarizers._GREEDYKL_MIN
    assert len(greedykl_compactions(cluster, *rule)) >= 3
    assert_greedykl_identical(cluster)


@pytest.mark.parametrize("threshold", [3.84, 10.83])
def test_duc_scale_topicsum_matches_leave_one_out(threshold):
    assert_topicsum_identical(zipf_corpus(5, 3, 10, 20), threshold)


def test_topic_threshold_at_realised_ratio():
    # a threshold equal to a ratio the cluster realises puts that token at
    # the decision boundary, as does the threshold one ulp either side;
    # there only a numpy ratio with the scalar rule's exact bits (its
    # operands, order of operations and math.log logs) picks the same tokens
    clusters = [word_cluster(docs) for docs in zipf_corpus(9, 3, 10, 20)]
    counts = _token_counts(s.tokens for c in clusters for s in c.sentences)
    corpus = CorpusCounts(counts, counts.total())
    tested = 0
    for cluster, background in zip(clusters, reference_background_counts(clusters)):
        counts = Counter(t for sentence in cluster.sentences for t in sentence.tokens)
        n1, n2 = sum(counts.values()), sum(background.values())
        realised = sorted({
            log_likelihood_ratio(k1, n1, background[t], n2)
            for t, k1 in counts.items() if k1 / n1 > background[t] / n2
        })
        tested += len(realised)
        for value in realised:
            below, above = math.nextafter(value, 0.0), math.nextafter(value, math.inf)
            for threshold in (below, value, above):
                got = topic_words(ClusterFeatures(cluster), corpus, threshold)
                assert got == reference_topic_words(cluster, background, threshold)
    assert tested > 200


def reference_cross_products(rows, cols, values) -> dict[tuple[int, int], list]:
    """The terms of ``M @ M.T`` off the diagonal, for ``M[rows, cols] =
    values``, by a plain loop over the columns: each cell's products, one
    for each column its two rows share, in column order."""
    columns: dict[int, list] = {}
    for col, row, value in sorted(zip(cols.tolist(), rows.tolist(), values.tolist())):
        columns.setdefault(col, []).append((row, value))
    terms: dict[tuple[int, int], list] = {}
    for entries in columns.values():
        for a, x in entries:
            for b, y in entries:
                if a != b:
                    terms.setdefault((a, b), []).append(x * y)
    return terms


def assert_cross_products_match(n, rows, cols, values=None):
    """``_cross_products`` equals the plain loop off the diagonal: exactly
    for a 0/1 M (no ``values``), else within the dot-product bound its
    docstring states, d * 2**-53 * sum(|terms|), plus 2 * 2**-53 *
    sum(|terms|) for the oracle's own rounding of each term and of the
    fsum, and one more for the bound's second-order part; cells of rows
    that share no column are exactly 0.0."""
    got = summarizers._cross_products(n, rows, cols, values)
    integer = values is None
    ones = np.ones(len(cols)) if integer else values
    unshared = ~np.eye(n, dtype=bool)
    for (a, b), terms in reference_cross_products(rows, cols, ones).items():
        unshared[a, b] = False
        want = math.fsum(terms)
        if integer:
            assert got[a, b] == want, (a, b)
        else:
            bound = (len(terms) + 3) * 2.0**-53 * math.fsum(map(abs, terms))
            assert abs(got[a, b] - want) <= bound, (a, b)
    assert (got[unshared] == 0.0).all()


def zipf_matrix(seed: int, n: int, width: int, top: int):
    """A sparse n-row matrix whose column c has about top / (c + 1) entries
    in random rows (at least one), shuffled, with TF-IDF-like float values."""
    rng = np.random.default_rng(seed)
    df = np.clip(top // np.arange(1, width + 1), 1, n)
    cols = np.repeat(np.arange(width), df)
    rows = np.concatenate([rng.choice(n, d, replace=False) for d in df.tolist()])
    values = rng.uniform(0.01, 6.0, len(cols))
    order = rng.permutation(len(cols))
    return rows[order], cols[order], values[order]


def ranked_dfs(cols) -> np.ndarray:
    """The dfs of the shared columns, from the highest."""
    df = np.bincount(cols)
    return np.sort(df[df >= 2])[::-1]


@pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
@pytest.mark.parametrize("n, width, top", [(24, 90, 24), (245, 400, 240), (1000, 900, 400)])
def test_cross_products_match_plain_loop(n, width, top, integer):
    rows, cols, values = zipf_matrix(n, n, width, top)
    if n > 24:
        # the pairs make several chunks
        ranked = ranked_dfs(cols)
        assert int((ranked * ranked).sum()) > max(n * n // 8, 1 << 12)
    # textrank's 0/1 path, or lexrank's weights
    assert_cross_products_match(n, rows, cols, None if integer else values)


def test_cross_products_add_across_chunks_in_column_order():
    # 40 rows that share four columns make 6 400 pairs, more than one chunk
    # holds at this n, so the rows whose entries fall either side of the
    # cut add the next chunk's products to the sums the first one began:
    # every cell is the left-to-right sum of its products in column order
    n = 40
    assert 4 * n * n > max(n * n // 8, 1 << 12)
    rows, cols = np.tile(np.arange(n), 4), np.repeat(np.arange(4), n)
    values = np.random.default_rng(3).uniform(0.01, 6.0, len(cols))
    got = summarizers._cross_products(n, rows, cols, values)
    for (a, b), terms in reference_cross_products(rows, cols, values).items():
        assert got[a, b] == reduce(operator.add, terms, 0.0), (a, b)
    assert_cross_products_match(n, rows, cols)


def test_thousand_sentence_zipf_cluster_matches_references():
    # textrank's products take several chunks of pairs, lexrank's one
    cluster = word_cluster(zipf_corpus(13, 1, 10, 100)[0])
    n = len(cluster.sentences)
    assert n == 1000
    ranked = ranked_dfs(ClusterFeatures(cluster).entries[1])
    assert int((ranked * ranked).sum()) > n * n // 8
    for name in ("lexrank", "textrank"):
        ranker, reference = PAIRS[name]
        got, want = ranker(ClusterFeatures(cluster)), reference(cluster)
        assert got.scores == want.scores, name
        assert got.ranks == want.ranks, name


def test_threshold_at_realised_cosine_on_the_pair_route():
    # a 300-sentence cluster with near-copies planted in other documents: a
    # threshold at a planted pair's cosine, or one ulp either side, is
    # decided by the exact cosine
    docs = zipf_corpus(17, 1, 6, 50)[0]
    planted = [(s, 1 + s % 5) for s in range(12)]  # (sentence, its copy's document)
    for s, d in planted:
        docs[d][s] = docs[0][s] + "".join(f" new{s}x{k}" for k in range(s % 4))
    cluster = word_cluster(docs)
    cosines = reference_cosines(cluster)
    realised = {cosines[s, 50 * d + s] for s, d in planted} - {0.0}
    assert len(realised) >= 10
    for value in sorted(realised):
        below, above = math.nextafter(value, 0.0), math.nextafter(value, 2.0)
        for threshold in (below, value, above):
            assert_graph_identical(cluster, threshold, cosines)


GREEDYKL_CASES = {
    "one_sentence": [["ash birch cedar"]],
    "two_sentences": [["ash birch", "birch cedar cedar"]],
    "two_with_one_token_less": [[".", "ash birch"]],
    "token_less_among_others": [[".", "ash birch ash", "!"], ["birch cedar", "...", "dune"]],
    "all_token_less": EDGE_CASES["all_sentences_empty"],
    "duplicates": EDGE_CASES["duplicates"],
    "type_repeated_five_times": EDGE_CASES["type_repeated_five_times"],
}


@pytest.mark.parametrize("docs", list(GREEDYKL_CASES.values()), ids=list(GREEDYKL_CASES))
def test_greedykl_compacting_small_gathers_matches_reference(docs):
    # with no least count, every gather compacts, at the last step too
    cluster = word_cluster(docs)
    with patch.object(summarizers, "_GREEDYKL_MIN", 0):
        assert_greedykl_identical(cluster)
    steps = greedykl_compactions(cluster, summarizers._GREEDYKL_DEAD, 0)
    n = len(cluster.sentences)
    if any(s.tokens for s in cluster.sentences):
        assert steps
        last = reference_greedykl_rank(cluster).order()[-1]
        assert (n in steps) == bool(cluster.sentences[last].tokens)
    else:
        assert steps == []


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=cluster_docs)
def test_random_clusters_greedykl_compacting_matches_reference(docs):
    with patch.object(summarizers, "_GREEDYKL_MIN", 0):
        assert_greedykl_identical(word_cluster(docs))
