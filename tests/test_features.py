import math
import random

import pytest

from summ.corpus import TokenizationConfig, cluster_from_sentences
from summ.features import SentenceVector, cosine_similarity

from ngram_counting import ngrams
from tfidf_reference import tfidf_vectors

PLAIN = TokenizationConfig(
    lowercase=True, remove_stopwords=False, stem=False, min_sentence_tokens=1
)


def make_cluster(docs):
    """docs: list of lists of sentence strings."""
    return cluster_from_sentences(
        "c", [(f"d{i}", sents) for i, sents in enumerate(docs)], config=PLAIN
    )


class TestNgrams:
    def test_bigrams(self):
        assert ngrams(["a", "b", "c"], 2) == {("a", "b"): 1, ("b", "c"): 1}

    def test_multiplicity(self):
        assert ngrams(["a", "a", "a"], 1) == {("a",): 3}

    def test_n_exceeds_length(self):
        assert ngrams(["a", "b"], 4) == {}

    def test_n_zero_is_error(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)

    def test_count_conservation(self):
        rng = random.Random(5)
        for _ in range(200):
            tokens = rng.choices("abcde", k=rng.randint(0, 20))
            n = rng.randint(1, 5)
            counts = ngrams(tokens, n)
            assert sum(counts.values()) == max(0, len(tokens) - n + 1)


class TestTfidf:
    def test_single_document_all_empty(self):
        cluster = make_cluster([["red fox runs", "red fox sleeps"]])
        assert all(not v for v in tfidf_vectors(cluster))

    def test_hand_weight(self):
        # "fox" twice in a d0 sentence, absent from d1: tf=2, idf=ln 2
        cluster = make_cluster([["fox fox runs"], ["bird sings loudly"]])
        vectors = tfidf_vectors(cluster)
        assert vectors[0].weights["fox"] == pytest.approx(2 * math.log(2))

    def test_shared_token_dropped(self):
        cluster = make_cluster([["fox runs"], ["fox sleeps"]])
        vectors = tfidf_vectors(cluster)
        assert all("fox" not in v.weights for v in vectors)

    def test_document_order_invariant(self):
        docs = [["fox runs fast"], ["bird sings loudly"], ["frog jumps high"]]
        forward = tfidf_vectors(make_cluster(docs))
        # re-key documents so the same sentences arrive in reversed order
        backward = tfidf_vectors(make_cluster(docs[::-1]))
        assert [v.weights for v in forward] == [v.weights for v in backward][::-1]


class TestCosine:
    def test_identical(self):
        v = SentenceVector({"x": 1.2, "y": 0.4})
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint(self):
        assert cosine_similarity(
            SentenceVector({"x": 1.0}), SentenceVector({"y": 2.0})
        ) == 0.0

    def test_hand_value(self):
        a = SentenceVector({"x": 1.0, "y": 1.0})
        b = SentenceVector({"x": 1.0})
        assert cosine_similarity(a, b) == pytest.approx(1 / math.sqrt(2))

    def test_empty_is_zero(self):
        assert cosine_similarity(SentenceVector({}), SentenceVector({"x": 1.0})) == 0.0

    def test_symmetric_and_bounded(self):
        rng = random.Random(13)
        tokens = list("abcdefgh")
        for _ in range(300):
            a = SentenceVector(
                {t: rng.uniform(0, 5) for t in rng.sample(tokens, rng.randint(0, 5))}
            )
            b = SentenceVector(
                {t: rng.uniform(0, 5) for t in rng.sample(tokens, rng.randint(0, 5))}
            )
            ab = cosine_similarity(a, b)
            assert ab == cosine_similarity(b, a)
            assert 0.0 <= ab <= 1.0
