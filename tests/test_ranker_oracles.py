"""Differential tests: the vectorized rankers against plain-loop references.

The reference implementations below are the original pure-Python loops of
``greedykl_rank``, ``lexrank_rank``, ``textrank_rank``, ``centroid_rank``
and ``freqsum_rank``.  The package's numpy rankers must reproduce their
scores and ranks exactly (``==``, no tolerance), since reports are
compared byte for byte.  Likewise ``topicsum_rank``, given corpus totals,
must reproduce the original leave-one-out background path,
``ClusterFeatures.entries`` the per-sentence ``Counter``s it replaced, and
``ClusterFeatures.vectors`` the dict TF-IDF vectors of
``tests/tfidf_reference.py``.
"""

import math
from collections import Counter
from typing import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from summ.corpus import DocumentCluster, TokenizationConfig, cluster_from_sentences
from summ.features import cosine_similarity
from summ.harness import _token_counts
from summ.summarizers import (
    ClusterFeatures,
    RankList,
    SummarizerConfig,
    _graph_rank,
    _kl_smoothing,
    _power_iteration,
    centroid_rank,
    freqsum_rank,
    greedykl_rank,
    lexrank_rank,
    log_likelihood_ratio,
    textrank_rank,
    topic_words,
    topicsum_rank,
)

from tfidf_reference import tfidf_vectors


def reference_lexrank_rank(
    cluster: DocumentCluster, config: SummarizerConfig
) -> RankList:
    """Eigenvector centrality over the thresholded cosine-TF-IDF graph."""
    n = len(cluster.sentences)
    vectors = tfidf_vectors(cluster)
    adjacency = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if cosine_similarity(vectors[i], vectors[j]) > config.lexrank_threshold:
                adjacency[i, j] = adjacency[j, i] = 1.0
    return _graph_rank("lexrank", adjacency, cluster, config)


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


def reference_textrank_rank(
    cluster: DocumentCluster, config: SummarizerConfig
) -> RankList:
    """Centrality over the content-word-overlap graph."""
    n = len(cluster.sentences)
    adjacency = np.zeros((n, n))
    tokens = [s.tokens for s in cluster.sentences]
    for i in range(n):
        for j in range(i + 1, n):
            weight = textrank_edge_weight(tokens[i], tokens[j])
            if weight > 0.0:
                adjacency[i, j] = adjacency[j, i] = weight
    return _graph_rank("textrank", adjacency, cluster, config)


def reference_greedykl_rank(
    cluster: DocumentCluster, config: SummarizerConfig
) -> RankList:
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
        return RankList.from_scores("greedykl", [-(i + 1) for i in range(n)])
    k = _kl_smoothing(len(cluster_counts), config)
    log_pc = {t: math.log(c / total) for t, c in cluster_counts.items()}
    vocab_size = len(cluster_counts)

    def gain(count: int, token: str) -> float:
        mass = count + k
        if mass == 0.0:
            return 0.0
        return mass * (math.log(mass) - log_pc[token])

    base = sum(gain(0, t) for t in cluster_counts)  # all-zero summary counts
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
            if denom == 0.0:
                kl = math.inf
            else:
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
    return RankList.from_scores("greedykl", scores)


def reference_centroid_rank(
    cluster: DocumentCluster, config: SummarizerConfig
) -> RankList:
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
        scores.append(sum(centroid.get(t, 0.0) for t in seen))
    return RankList.from_scores("centroid", scores)


def reference_freqsum_rank(
    cluster: DocumentCluster, config: SummarizerConfig
) -> RankList:
    """Average cluster-frequency of a sentence's content words."""
    counts = Counter(t for sentence in cluster.sentences for t in sentence.tokens)
    total = sum(counts.values())
    scores = []
    for sentence in cluster.sentences:
        if total == 0 or not sentence.tokens:
            scores.append(0.0)
            continue
        scores.append(
            sum(counts[t] / total for t in sentence.tokens) / len(sentence.tokens)
        )
    return RankList.from_scores("freqsum", scores)


PAIRS = {
    "greedykl": (greedykl_rank, reference_greedykl_rank),
    "lexrank": (lexrank_rank, reference_lexrank_rank),
    "textrank": (textrank_rank, reference_textrank_rank),
    "centroid": (centroid_rank, reference_centroid_rank),
    "freqsum": (freqsum_rank, reference_freqsum_rank),
}
WORDS = TokenizationConfig(
    lowercase=True, remove_stopwords=False, stem=False, min_sentence_tokens=1
)
VOCAB = ["ash", "birch", "cedar", "dune", "elm", "fern", "gale", "haze", "iris"]


def make_cluster(docs):
    return cluster_from_sentences(
        "c", [(f"d{i}", sents) for i, sents in enumerate(docs)], config=WORDS
    )


def assert_identical(cluster, config):
    for name, (ranker, reference) in PAIRS.items():
        got, want = ranker(ClusterFeatures(cluster), config), reference(cluster, config)
        assert got.scores == want.scores, name
        assert got.ranks == want.ranks, name
    # the same weights, each sentence's tokens in the same order
    got = [list(v.weights.items()) for v in ClusterFeatures(cluster).vectors]
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
configs = st.builds(
    SummarizerConfig,
    lexrank_threshold=st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]),
    kl_smoothing_k=st.sampled_from([None, 0.0, 0.01, 1.0]),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=cluster_docs, config=configs)
def test_random_clusters_match_references(docs, config):
    assert_identical(make_cluster(docs), config)


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
    # leading empty sentences: zero denominators at the first step when k = 0
    "empty_sentences_first": [[".", "!", "ash birch ash"], ["...", "birch cedar"]],
    # every token is in every document: no TF-IDF weight at all
    "single_document": [["ash birch ash", ".", "cedar birch dune"]],
    # "ash" is in every document and drops out of each vector
    "token_in_every_document": [
        ["ash birch ash", "cedar"], ["dune ash", "."], ["elm fern ash birch fern"],
    ],
}


@pytest.mark.parametrize("docs", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
@pytest.mark.parametrize("config", [
    SummarizerConfig(),
    SummarizerConfig(kl_smoothing_k=0),
    SummarizerConfig(kl_smoothing_k=0.0, lexrank_threshold=0.0),
], ids=["default", "k0", "k0_threshold0"])
def test_edge_cases_match_references(docs, config):
    assert_identical(make_cluster(docs), config)


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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=cluster_docs)
def test_random_cluster_entries_match_reference(docs):
    assert_entries_identical(make_cluster(docs))


@pytest.mark.parametrize("docs", [
    EDGE_CASES["all_sentences_empty"],
    EDGE_CASES["zero_and_one_token_mix"],
    EDGE_CASES["type_repeated_five_times"],
    [["ash birch", "."], [".", "cedar ash"], ["..."]],
], ids=["no_tokens", "zero_and_one_token_mix", "repeated_type", "empty_sentences"])
def test_edge_cluster_entries_match_reference(docs):
    assert_entries_identical(make_cluster(docs))


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
    cluster = make_cluster(docs)
    vectors = tfidf_vectors(cluster)
    n = len(vectors)
    realised = sorted({
        cosine_similarity(vectors[i], vectors[j])
        for i in range(n) for j in range(i + 1, n)
    } - {0.0})
    assert len(realised) > 5
    for value in realised:
        below, above = math.nextafter(value, 0.0), math.nextafter(value, 2.0)
        for threshold in (below, value, above):
            config = SummarizerConfig(lexrank_threshold=threshold)
            got = lexrank_rank(ClusterFeatures(cluster), config)
            want = reference_lexrank_rank(cluster, config)
            assert got.scores == want.scores
            assert got.ranks == want.ranks


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
    assert_identical(make_cluster(docs), SummarizerConfig())


def reference_power_iteration(
    adjacency: np.ndarray, config: SummarizerConfig
) -> np.ndarray:
    """Stationary distribution of the damped, row-normalized walk."""
    n = adjacency.shape[0]
    row_sums = adjacency.sum(axis=1)
    transition = np.full((n, n), 1.0 / n)
    nonzero = row_sums > 0
    transition[nonzero] = adjacency[nonzero] / row_sums[nonzero, None]
    teleport = (1.0 - config.damping) / n
    p = np.full(n, 1.0 / n)
    for _ in range(config.power_iter_max):
        p_next = config.damping * (transition.T @ p) + teleport
        if np.abs(p_next - p).sum() <= config.power_iter_tol:
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
    for config in (SummarizerConfig(), SummarizerConfig(power_iter_max=3)):
        want = reference_power_iteration(weights, config)
        assert _power_iteration(weights.copy(), config).tolist() == want.tolist()


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


def reference_topicsum_rank(
    cluster: DocumentCluster, background: Counter, config: SummarizerConfig
) -> RankList:
    """Fraction of a sentence's tokens that are topic-signature words."""
    signature = reference_topic_words(cluster, background, config.topic_llr_threshold)
    scores = []
    for sentence in cluster.sentences:
        if not sentence.tokens:
            scores.append(0.0)
            continue
        hits = sum(1 for t in sentence.tokens if t in signature)
        scores.append(hits / len(sentence.tokens))
    return RankList.from_scores("topicsum", scores)


def assert_topicsum_identical(corpus_docs, config):
    clusters = [
        cluster_from_sentences(
            f"c{c}",
            [(f"d{i}", sents) for i, sents in enumerate(docs)],
            config=WORDS,
        )
        for c, docs in enumerate(corpus_docs)
    ]
    corpus_counts = _token_counts(s.tokens for c in clusters for s in c.sentences)
    for cluster, background in zip(clusters, reference_background_counts(clusters)):
        try:
            want = reference_topicsum_rank(cluster, background, config)
        except ValueError as exc:
            with pytest.raises(ValueError, match="background required"):
                topicsum_rank(ClusterFeatures(cluster), corpus_counts, config)
            assert "background required" in str(exc)
            continue
        got = topicsum_rank(ClusterFeatures(cluster), corpus_counts, config)
        assert got.scores == want.scores
        assert got.ranks == want.ranks


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
    assert_topicsum_identical(
        corpus_docs, SummarizerConfig(topic_llr_threshold=threshold)
    )


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
    assert_topicsum_identical(corpus_docs, SummarizerConfig(topic_llr_threshold=0.5))


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


@pytest.mark.parametrize("config", [
    SummarizerConfig(), SummarizerConfig(kl_smoothing_k=0),
], ids=["default", "k0"])
def test_duc_scale_greedykl_matches_reference(config):
    # a DUC-sized cluster: 200 sentences, hundreds of distinct words, and
    # tokens repeated within a sentence, so every table row and step is used
    cluster = make_cluster(zipf_corpus(3, 1, 10, 20)[0])
    assert len(cluster.sentences) == 200
    assert int(ClusterFeatures(cluster).entries[2].max()) >= 3
    got = greedykl_rank(ClusterFeatures(cluster), config)
    want = reference_greedykl_rank(cluster, config)
    assert got.scores == want.scores
    assert got.ranks == want.ranks


@pytest.mark.parametrize("threshold", [3.84, 10.83])
def test_duc_scale_topicsum_matches_leave_one_out(threshold):
    assert_topicsum_identical(
        zipf_corpus(5, 3, 10, 20), SummarizerConfig(topic_llr_threshold=threshold)
    )


def test_topic_threshold_at_realised_ratio():
    # a threshold equal to a ratio the cluster realises puts that token at
    # the decision boundary, where the numpy ratio, whose logs can miss
    # math.log by an ulp, must give way to the scalar rule; so does the
    # threshold one ulp either side
    clusters = [make_cluster(docs) for docs in zipf_corpus(9, 3, 10, 20)]
    corpus_counts = _token_counts(s.tokens for c in clusters for s in c.sentences)
    tested = 0
    for cluster, background in zip(clusters, reference_background_counts(clusters)):
        counts = ClusterFeatures(cluster).counts
        n1, n2 = sum(counts.values()), sum(background.values())
        realised = sorted({
            log_likelihood_ratio(k1, n1, background[t], n2)
            for t, k1 in counts.items() if k1 / n1 > background[t] / n2
        })
        tested += len(realised)
        for value in realised:
            below, above = math.nextafter(value, 0.0), math.nextafter(value, math.inf)
            for threshold in (below, value, above):
                got = topic_words(ClusterFeatures(cluster), corpus_counts, threshold)
                assert got == reference_topic_words(cluster, background, threshold)
    assert tested > 200
