import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from summ import summarizers
from summ.summarizers import (
    DAMPING,
    POWER_ITER_TOL,
    TOPIC_LLR_THRESHOLD,
    LengthBudget,
    ClusterFeatures,
    RankList,
    _power_iteration,
    centroid_rank,
    extract_summary,
    freqsum_rank,
    greedykl_rank,
    lexrank_rank,
    textrank_rank,
    topic_words,
    topicsum_rank,
)

from reference.corpus import pooled, sentence_counts
from reference.fixture import word_cluster as make_cluster
from reference.fixture import zipf_corpus
from reference.rankers import (
    log_likelihood_ratio,
    reference_power_iteration,
    summary_kl,
    textrank_edge_weight,
)


class TestRankList:
    def test_from_scores_tie_break(self):
        rl = RankList.from_scores([0.5, 0.9, 0.5])
        assert rl.ranks == (2, 1, 3)
        assert rl.order() == [1, 0, 2]

    def test_validation(self):
        with pytest.raises(ValueError, match="scores must not contain NaN"):
            RankList.from_scores([float("nan"), 1.0])
        with pytest.raises(ValueError, match="scores must not contain NaN"):
            RankList((1.0, float("nan")))

    def test_permutation_property(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 20)
            scores = [rng.choice([0.0, 0.25, 0.5, rng.random()]) for _ in range(n)]
            rl = RankList.from_scores(scores)
            assert sorted(rl.ranks) == list(range(1, n + 1))

    def test_checks_match_sorted_key_reference(self):
        # scores with ties, signed zeros and infinities: the derived ranks
        # and order are the (-score, index) sorted-key reference's
        rng = random.Random(47)
        values = [0.0, -0.0, 0.5, 1.0, -1.0, math.inf, -math.inf]
        for _ in range(3000):
            n = rng.randint(0, 6)
            scores = tuple(rng.choice(values) for _ in range(n))
            expected = sorted(range(n), key=lambda i: (-scores[i], i))
            derived = [0] * n
            for position, idx in enumerate(expected):
                derived[idx] = position + 1
            rl = RankList.from_scores(scores)
            assert rl.ranks == tuple(derived), scores
            assert rl.order() == expected, scores
            # derived once: a second read gives the same objects
            assert rl.ranks is rl.ranks
            assert rl.order() == rl.order()


class TestConfigs:
    def test_budget_parse(self):
        assert LengthBudget.parse("words:100") == LengthBudget("words", 100)
        assert LengthBudget.parse("bytes:665") == LengthBudget("bytes", 665)
        for bad, message in (("words", "bad budget"), ("chars:10", "budget kind must be one of"),
                             ("words:0", "budget limit must be > 0"), ("words:x", "bad budget")):
            with pytest.raises(ValueError, match=message):
                LengthBudget.parse(bad)

    def test_budget_limit_is_ascii_digits(self):
        # str.isdigit also accepts Arabic-Indic digits and superscripts
        for bad in ("words:\u0661\u0660", "words:\u00b2", "words:--5", "words:+5", "words:5\n"):
            with pytest.raises(ValueError, match="bad budget"):
                LengthBudget.parse(bad)
        with pytest.raises(ValueError, match="budget limit must be > 0"):
            LengthBudget.parse("words:-5")


class TestPowerIteration:
    def test_residual_below_tol_and_sums_to_one(self):
        rng = random.Random(37)
        for _ in range(20):
            n = rng.randint(2, 8)
            adjacency = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        adjacency[i, j] = adjacency[j, i] = rng.uniform(0.1, 1.0)
            if adjacency.sum() == 0:
                continue
            p = _power_iteration(adjacency.copy())  # it normalizes in place
            assert p.sum() == pytest.approx(1.0, abs=1e-6)
            row_sums = adjacency.sum(axis=1)
            transition = np.full((n, n), 1.0 / n)
            mask = row_sums > 0
            transition[mask] = adjacency[mask] / row_sums[mask, None]
            step = DAMPING * transition.T @ p + (1 - DAMPING) / n
            assert np.abs(step - p).sum() <= POWER_ITER_TOL

    def test_step_bound_warns_once_and_returns_the_last_step(self, monkeypatch, caplog):
        # a three-sentence chain: its first step moves far more than the tolerance
        monkeypatch.setattr(summarizers, "POWER_ITER_MAX", 1)
        adjacency = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with caplog.at_level("WARNING"):
            p = _power_iteration(adjacency.copy())
        [record] = caplog.records
        assert (record.name, record.funcName, record.getMessage()) == (
            "summ.summarizers", "_power_iteration", "power iteration did not reach tol in 1 steps")
        assert p.tolist() == reference_power_iteration(adjacency, max_iter=1).tolist()


class TestLexrank:
    def test_identical_pair(self):
        cluster = make_cluster([["red fox runs", "red fox runs"], ["other words here"]])
        rl = lexrank_rank(ClusterFeatures(cluster))
        assert rl.scores[0] == pytest.approx(rl.scores[1], abs=1e-9)

    def test_singleton(self):
        cluster = make_cluster([["only one sentence"]])
        rl = lexrank_rank(ClusterFeatures(cluster))
        assert rl.scores == (1.0,)
        assert rl.ranks == (1,)

    def test_chain_stationary(self):
        # s0~s1, s1~s2, s0 and s2 disjoint: adjacency is a 3-chain and the
        # damped stationary distribution is (19/74, 18/37, 19/74)
        cluster = make_cluster([["alpha beta"], ["beta gamma"], ["gamma delta"]])
        rl = lexrank_rank(ClusterFeatures(cluster))
        assert rl.ranks[1] == 1
        assert rl.scores[0] == pytest.approx(19 / 74, abs=1e-4)
        assert rl.scores[1] == pytest.approx(18 / 37, abs=1e-4)
        assert rl.scores[2] == pytest.approx(19 / 74, abs=1e-4)

    def test_isolated_graph_uniform_fallback(self, caplog):
        cluster = make_cluster([["alpha beta"], ["gamma delta"]])
        with caplog.at_level("WARNING"):
            rl = lexrank_rank(ClusterFeatures(cluster))
        assert "falling back to uniform" in caplog.text
        assert rl.scores == (0.5, 0.5)
        assert rl.ranks == (1, 2)


def _peak_arrays(ranker, cluster) -> float:
    """The ranker's tracemalloc peak on the cluster, in n x n float64
    arrays, with the cluster's features built before the count starts."""
    n = len(cluster.sentences)
    features = ClusterFeatures(cluster)
    features.entries, features.vectors
    tracemalloc.start()
    try:
        ranker(features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)


class TestGraphMemory:
    @pytest.mark.parametrize("ranker", [lexrank_rank, textrank_rank])
    def test_peak_is_at_most_two_and_a_half_dense_arrays(self, ranker):
        # a 1 000-sentence cluster: the ranker's n x n float64 arrays, not
        # the cluster's features, set the peak
        cluster = make_cluster(zipf_corpus(11, 1, 10, 100)[0])
        assert len(cluster.sentences) == 1000
        # textrank's products and divisor, and lexrank's threshold, are
        # made a chunk of rows at a time, so each one's n x n array is the
        # adjacency it returns (lexrank measured 1.15 arrays)
        bound = 1.6 if ranker is textrank_rank else 1.25
        assert _peak_arrays(ranker, cluster) <= bound

    def test_textrank_chunks_rows_just_above_one_gemm(self):
        # 300 sentences: a 256-row chunk would be most of the matrix, so
        # the chunk is a fraction of n
        cluster = make_cluster(zipf_corpus(3, 1, 10, 30)[0])
        assert len(cluster.sentences) == 300
        assert _peak_arrays(textrank_rank, cluster) <= 1.6


class TestTextrank:
    def test_edge_weight_value(self):
        weight = textrank_edge_weight(["a", "b", "c"], ["a", "b", "x"])
        assert weight == pytest.approx(0.9102392266268373)

    def test_short_sentences_have_no_edges(self):
        assert textrank_edge_weight(["a"], ["a", "b"]) == 0.0

    def test_identical_pair_symmetric(self):
        cluster = make_cluster(
            [["red fox runs far", "red fox runs far"], ["more unrelated words here"]]
        )
        rl = textrank_rank(ClusterFeatures(cluster))
        assert rl.scores[0] == pytest.approx(rl.scores[1], abs=1e-9)

    def test_zero_overlap_uniform_fallback(self, caplog):
        cluster = make_cluster([["alpha beta"], ["gamma delta"]])
        with caplog.at_level("WARNING"):
            rl = textrank_rank(ClusterFeatures(cluster))
        assert "falling back to uniform" in caplog.text
        assert rl.scores == (0.5, 0.5)


class TestCentroid:
    def test_single_document_all_zero(self):
        cluster = make_cluster([["red fox runs", "blue bird sings"]])
        rl = centroid_rank(ClusterFeatures(cluster))
        assert rl.scores == (0.0, 0.0)
        assert rl.ranks == (1, 2)

    def test_hand_computed(self):
        # d0: "alpha beta gamma", d1: "beta delta"; beta occurs in both
        # documents so it drops out; centroid = {alpha, gamma, delta: ln2/2}
        cluster = make_cluster([["alpha beta gamma"], ["beta delta"]])
        rl = centroid_rank(ClusterFeatures(cluster))
        assert rl.scores[0] == pytest.approx(math.log(2))
        assert rl.scores[1] == pytest.approx(math.log(2) / 2)
        assert rl.ranks == (1, 2)

    def test_covering_sentence_dominates(self):
        cluster = make_cluster(
            [["alpha beta gamma delta", "alpha beta"], ["unrelated filler words"]]
        )
        rl = centroid_rank(ClusterFeatures(cluster))
        assert rl.ranks[0] == 1


class TestFreqsum:
    def test_singleton(self):
        cluster = make_cluster([["lone sentence here"]])
        rl = freqsum_rank(ClusterFeatures(cluster))
        assert rl.ranks == (1,)

    def test_hand_computed(self):
        # counts: a=3, b=1; scores: [a a] -> 0.75, [a b] -> 0.5
        cluster = make_cluster([["a a", "a b"]])
        rl = freqsum_rank(ClusterFeatures(cluster))
        assert rl.scores == (0.75, 0.5)

    def test_duplicating_documents_is_invariant(self):
        docs = [["red fox runs", "red bird sings"], ["red fox sleeps"]]
        cluster = make_cluster(docs)
        doubled = make_cluster(docs + docs)
        assert (
            freqsum_rank(ClusterFeatures(doubled)).scores[: len(cluster.sentences)]
            == freqsum_rank(ClusterFeatures(cluster)).scores
        )


class TestTopicsum:
    def test_llr_hand_value(self):
        assert log_likelihood_ratio(8, 20, 0, 200) == pytest.approx(
            41.81200858685817
        )

    # topicsum takes corpus totals: the cluster's own counts plus the
    # background of every other cluster

    def test_background_equal_to_cluster_gives_all_zero(self):
        cluster = make_cluster([["red fox runs", "red bird sings"]])
        corpus = pooled(sentence_counts([cluster]) + sentence_counts([cluster]))
        rl = topicsum_rank(ClusterFeatures(cluster), corpus)
        assert rl.scores == (0.0,) * len(cluster.sentences)

    def test_overrepresented_token_becomes_topic_word(self):
        sentences = [["storm storm storm storm storm surge", "other words here"]]
        cluster = make_cluster(sentences)
        corpus = pooled(sentence_counts([cluster]) + Counter({f"w{i}": 20 for i in range(20)}))
        signature = topic_words(ClusterFeatures(cluster), corpus, TOPIC_LLR_THRESHOLD)
        assert "storm" in signature

    def test_pure_topic_sentence_scores_one(self):
        cluster = make_cluster([["storm storm storm storm storm", "calm words today"]])
        corpus = pooled(sentence_counts([cluster]) + Counter({f"w{i}": 30 for i in range(30)}))
        rl = topicsum_rank(ClusterFeatures(cluster), corpus)
        assert max(rl.scores) == rl.scores[0] == 1.0

    def test_empty_background_is_error(self):
        cluster = make_cluster([["red fox runs"]])
        with pytest.raises(ValueError, match="background required"):
            topicsum_rank(ClusterFeatures(cluster), pooled(sentence_counts([cluster])))

    def test_corpus_counts_must_include_the_cluster(self):
        cluster = make_cluster([["red fox runs", "red bird sings"]])
        background = pooled(Counter({"red": 1, "noise": 50}))
        with pytest.raises(ValueError, match="corpus counts miss"):
            topicsum_rank(ClusterFeatures(cluster), background)


class TestGreedyKL:
    def test_identical_sentences_select_in_index_order(self):
        cluster = make_cluster([["red fox runs"] * 4])
        rl = greedykl_rank(ClusterFeatures(cluster))
        assert rl.ranks == (1, 2, 3, 4)

    def test_incremental_matches_direct_formula(self):
        rng = random.Random(43)
        vocab = ["oak", "pine", "sage", "teak"]
        sentences = [
            " ".join(rng.choices(vocab, k=rng.randint(1, 5))) for _ in range(5)
        ]
        cluster = make_cluster([sentences])
        rl = greedykl_rank(ClusterFeatures(cluster))
        order = rl.order()
        k = 0.0005 * len({t for s in cluster.sentences for t in s.tokens})
        # each incremental pick must minimize the direct KL of the prefix
        for depth in range(len(order)):
            prefix = order[:depth]
            kls = [
                summary_kl(cluster, prefix + [i], k)
                for i in order[depth:]
            ]
            assert summary_kl(cluster, prefix + [order[depth]], k) <= (
                min(kls) + 1e-9
            )


def extract(rank_list, cluster, budget, cap=None):
    return extract_summary(rank_list, ClusterFeatures(cluster), budget, cap)


def word_cost(cluster, summary):
    return sum(len(cluster.sentences[i].raw_text.split()) for i in summary.sentence_indices)


def byte_cost(cluster, summary):
    """UTF-8 bytes of the sentences, joined by one separator byte."""
    texts = [cluster.sentences[i].raw_text for i in summary.sentence_indices]
    return len(" ".join(texts).encode("utf-8"))


class TestExtractSummary:
    def test_word_budget_prefix(self):
        sentences = [" ".join([f"w{i}{j}" for j in range(40)]) for i in range(3)]
        cluster = make_cluster([sentences])
        rl = RankList.from_scores([3.0, 2.0, 1.0])
        summary = extract(rl, cluster, LengthBudget("words", 100))
        assert summary.sentence_indices == (0, 1)
        assert word_cost(cluster, summary) == 80

    def test_stops_at_first_overflow(self):
        # rank order: 60-word, 60-word, 30-word; the second overflows and
        # the walk stops, it does not scan ahead to the smaller third
        sentences = [
            " ".join([f"a{j}" for j in range(60)]),
            " ".join([f"b{j}" for j in range(60)]),
            " ".join([f"c{j}" for j in range(30)]),
        ]
        cluster = make_cluster([sentences])
        rl = RankList.from_scores([3.0, 2.0, 1.0])
        summary = extract(rl, cluster, LengthBudget("words", 100))
        assert summary.sentence_indices == (0,)

    def test_redundancy_cap_skips_duplicate(self):
        docs = [
            ["alpha beta gamma", "alpha beta gamma", "delta epsilon zeta"],
            ["unrelated words entirely"],
        ]
        cluster = make_cluster(docs)
        rl = RankList.from_scores([4.0, 3.0, 2.0, 1.0])
        summary = extract(rl, cluster, LengthBudget("words", 6), cap=0.99)
        assert summary.sentence_indices == (0, 2)

    def test_byte_budget_hand_simulation(self):
        # costs: 9, then 1 + 9, then 1 + 2; budget 19 fits exactly two
        cluster = make_cluster([["aaaa bbbb", "cccc dddd", "ee"]])
        rl = RankList.from_scores([3.0, 2.0, 1.0])
        summary = extract(rl, cluster, LengthBudget("bytes", 19))
        assert summary.sentence_indices == (0, 1)
        assert byte_cost(cluster, summary) == 19

    def test_ineligible_sentences_skipped(self):
        cluster = make_cluster([["too short", "this one is long enough"]], min_tokens=3)
        rl = RankList.from_scores([2.0, 1.0])
        summary = extract(rl, cluster, LengthBudget("words", 10))
        assert summary.sentence_indices == (1,)

    def test_budget_below_first_sentence(self):
        cluster = make_cluster([["five words are in here"]])
        rl = RankList.from_scores([1.0])
        summary = extract(rl, cluster, LengthBudget("words", 3))
        assert summary.sentence_indices == ()

    def test_never_exceeds_budget_and_is_maximal(self):
        rng = random.Random(47)
        for _ in range(50):
            sentences = [
                " ".join([f"t{i}{j}" for j in range(rng.randint(1, 12))])
                for i in range(rng.randint(1, 8))
            ]
            cluster = make_cluster([sentences])
            rl = RankList.from_scores([rng.random() for _ in range(len(sentences))])
            limit = rng.randint(1, 40)
            summary = extract(rl, cluster, LengthBudget("words", limit))
            used = word_cost(cluster, summary)
            assert used <= limit
            taken = set(summary.sentence_indices)
            for idx in rl.order():
                if idx in taken:
                    continue
                cost = len(cluster.sentences[idx].raw_text.split())
                assert used + cost > limit
                break


SYSTEMS = {
    "lexrank": lexrank_rank,
    "textrank": textrank_rank,
    "centroid": centroid_rank,
    "freqsum": freqsum_rank,
    "greedykl": greedykl_rank,
}


def random_cluster(rng, vocab):
    docs = []
    for d in range(rng.randint(2, 3)):
        docs.append([
            " ".join(rng.choices(vocab, k=rng.randint(2, 7)))
            for _ in range(rng.randint(2, 4))
        ])
    return docs


class TestRankerProperties:
    def test_determinism(self):
        rng = random.Random(53)
        vocab = ["gale", "tide", "reef", "dune", "cove", "surf"]
        docs = random_cluster(rng, vocab)
        cluster = make_cluster(docs)
        corpus = pooled(sentence_counts([cluster]) + Counter({"noise": 50, "words": 50}))
        for name, ranker in SYSTEMS.items():
            assert ranker(ClusterFeatures(cluster)) == ranker(ClusterFeatures(cluster)), name
        assert topicsum_rank(ClusterFeatures(cluster), corpus) == topicsum_rank(
            ClusterFeatures(cluster), corpus
        )

    def test_token_bijection_leaves_ranks_unchanged(self):
        rng = random.Random(59)
        vocab = ["gale", "tide", "reef", "dune", "cove", "surf", "kelp"]

        def rename(word):
            return word[::-1] + "x"

        for trial in range(10):
            docs = random_cluster(rng, vocab)
            renamed = [[" ".join(rename(w) for w in s.split()) for s in doc]
                       for doc in docs]
            cluster = make_cluster(docs)
            mirrored = make_cluster(renamed)
            corpus = pooled(sentence_counts([cluster]) + Counter({w: 9 for w in vocab}))
            renamed_corpus = pooled(sentence_counts([mirrored]) + Counter(
                {rename(w): 9 for w in vocab}
            ))
            for name, ranker in SYSTEMS.items():
                assert (
                    ranker(ClusterFeatures(cluster)).ranks == ranker(ClusterFeatures(mirrored)).ranks
                ), (name, trial)
            assert (
                topicsum_rank(ClusterFeatures(cluster), corpus).ranks
                == topicsum_rank(ClusterFeatures(mirrored), renamed_corpus).ranks
            )

    def test_scores_sum_to_one_for_graph_rankers(self):
        rng = random.Random(61)
        vocab = ["gale", "tide", "reef", "dune"]
        for _ in range(10):
            cluster = make_cluster(random_cluster(rng, vocab))
            for ranker in (lexrank_rank, textrank_rank):
                assert sum(ranker(ClusterFeatures(cluster)).scores) == pytest.approx(
                    1.0, abs=1e-6
                )
