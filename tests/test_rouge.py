import random
from collections import Counter

import pytest

from summ.rouge import pairwise_sim_matrix, prepare_text, rouge_n_recall

from reference.rouge import ngram_counts


def recall(candidate, references, n):
    """ROUGE-N of per-sentence token lists against flat token streams."""
    return rouge_n_recall(
        ngram_counts(candidate, n), [ngram_counts([r], n) for r in references], n
    )


def peer_matrix(summaries):
    return pairwise_sim_matrix([ngram_counts(s, 1) for s in summaries])


class TestRougeRecall:
    def test_identity(self):
        cand = [["the", "cat", "sat"]]
        score = recall(cand, [["the", "cat", "sat"]], 1)
        assert score.recall == 1.0
        assert score.match_count == score.reference_count == 3

    def test_clipped_unigrams(self):
        ref = ["the", "cat", "sat", "on", "the", "mat"]
        cand = [["the", "cat", "the", "dog"]]
        score = recall(cand, [ref], 1)
        assert score.recall == pytest.approx(0.5)
        assert score.match_count == 3
        assert score.reference_count == 6

    def test_disjoint(self):
        for n in (1, 2, 4):
            score = recall(
                [["a", "b", "c", "d", "e"]], [["v", "w", "x", "y", "z"]], n
            )
            assert score.recall == 0.0

    def test_ngrams_do_not_cross_candidate_sentences(self):
        # the bigram (a, b) only exists if sentences were joined
        score = recall([["x", "a"], ["b", "y"]], [["a", "b"]], 2)
        assert score.recall == 0.0

    def test_multi_reference_mean(self):
        cand = [["a", "b"]]
        score = recall(cand, [["a", "b"], ["a", "c", "d", "e"]], 1)
        assert score.recall == pytest.approx((1.0 + 0.25) / 2)
        assert score.match_count == 3
        assert score.reference_count == 6

    def test_short_reference_excluded(self):
        cand = [["a", "b", "c", "d"]]
        # first reference has no 4-grams and must not drag the mean down
        score = recall(cand, [["a", "b"], ["a", "b", "c", "d"]], 4)
        assert score.recall == 1.0

    def test_all_references_unscorable(self):
        with pytest.raises(ValueError, match="no scorable reference"):
            recall([["a", "b", "c", "d"]], [["a", "b"]], 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            rouge_n_recall(Counter({("a",): 1}), [Counter({("a",): 1})], 0)
        with pytest.raises(ValueError):
            rouge_n_recall(Counter({("a",): 1}), [], 1)

    def test_monotone_in_candidate(self):
        rng = random.Random(23)
        vocab = list("abcde")
        for _ in range(100):
            n = rng.choice([1, 2])
            reference = rng.choices(vocab, k=rng.randint(n, 12))
            sentence = rng.choices(vocab, k=rng.randint(0, 8))
            before = recall([sentence], [reference], n).match_count
            start = rng.randint(0, len(reference) - n)
            extended = [sentence, reference[start : start + n]]
            after = recall(extended, [reference], n).match_count
            assert after >= before


class TestPrepareText:
    def test_stems_and_keeps_stopwords(self):
        assert prepare_text("The cats sat on mats.") == [
            "the", "cat", "sat", "on", "mat"
        ]


class TestPairwiseSim:
    def test_identical_summaries(self):
        s = [["a", "b"], ["c", "d"]]
        matrix = peer_matrix([s, s, s])
        assert matrix == [[1.0] * 3] * 3

    def test_hand_asymmetry(self):
        s1 = [["a", "a", "b"]]
        s2 = [["a"]]
        matrix = peer_matrix([s1, s2])
        assert matrix[0][1] == pytest.approx(1.0)
        assert matrix[1][0] == pytest.approx(1 / 3)

    def test_half_overlap(self):
        matrix = peer_matrix([[["a", "b"]], [["a", "c"]]])
        assert matrix[0][1] == pytest.approx(0.5)
        assert matrix[1][0] == pytest.approx(0.5)

    def test_empty_summary_rows(self):
        matrix = peer_matrix([[["a", "b"]], [], [["a"]]])
        assert matrix[1] == [0.0, 1.0, 0.0]
        assert [row[1] for row in matrix] == [0.0, 1.0, 0.0]

    def test_k_below_two(self):
        with pytest.raises(ValueError):
            peer_matrix([[["a"]]])

    def test_bounds_and_diagonal(self):
        rng = random.Random(29)
        vocab = list("abcdef")
        for _ in range(50):
            summaries = [
                [rng.choices(vocab, k=rng.randint(1, 6))]
                for _ in range(rng.randint(2, 5))
            ]
            matrix = peer_matrix(summaries)
            for i, row in enumerate(matrix):
                assert row[i] == 1.0
                assert all(0.0 <= x <= 1.0 for x in row)
