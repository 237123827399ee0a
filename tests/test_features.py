import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from summ.summarizers import (
    ClusterFeatures,
    LengthBudget,
    RankList,
    cosine_similarity,
    extract_summary,
)

from reference.features import cosine_similarity as oracle_cosine
from reference.features import reference_extract, tfidf_vectors
from reference.fixture import word_cluster as make_cluster


class TestTfidf:
    def test_single_document_all_empty(self):
        cluster = make_cluster([["red fox runs", "red fox sleeps"]])
        assert all(not v for v in ClusterFeatures(cluster).vectors)

    def test_hand_weight(self):
        # "fox" twice in a d0 sentence, absent from d1: tf=2, idf=ln 2
        features = ClusterFeatures(make_cluster([["fox fox runs"], ["bird sings loudly"]]))
        assert features.vectors[0][features.ids["fox"]] == pytest.approx(2 * math.log(2))

    def test_shared_token_dropped(self):
        features = ClusterFeatures(make_cluster([["fox runs"], ["fox sleeps"]]))
        assert all(features.ids["fox"] not in v for v in features.vectors)

    def test_document_order_invariant(self):
        docs = [["fox runs fast"], ["bird sings loudly"], ["frog jumps high"]]
        forward = ClusterFeatures(make_cluster(docs))
        # re-key documents so the same sentences arrive in reversed order;
        # ids number the sorted vocabulary, so both clusters share them
        backward = ClusterFeatures(make_cluster(docs[::-1]))
        assert forward.ids == backward.ids
        assert forward.vectors == backward.vectors[::-1]


class TestCosine:
    def test_identical(self):
        features = ClusterFeatures(make_cluster([["x y y"], ["z"]]))
        assert cosine_similarity(features, 0, 0) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint(self):
        assert cosine_similarity(ClusterFeatures(make_cluster([["x"], ["y"]])), 0, 1) == 0.0

    def test_hand_value(self):
        # sentence 0 weighs x and y ln 2 each, sentence 1 only x
        features = ClusterFeatures(make_cluster([["x y", "x"], ["z"]]))
        assert cosine_similarity(features, 0, 1) == pytest.approx(1 / math.sqrt(2))

    def test_empty_is_zero(self):
        # "." has no token; "w" is in every document, so it weighs nothing
        features = ClusterFeatures(make_cluster([[".", "w", "x w"], ["w y"]]))
        for i in range(2):
            assert features.vectors[i] == {}
            assert features.norms[i] == 1.0
            assert cosine_similarity(features, i, 2) == 0.0
            assert cosine_similarity(features, i, i) == 0.0

    def test_symmetric_and_bounded(self):
        rng = random.Random(13)
        tokens = list("abcdefgh")
        for _ in range(100):
            docs = [
                [" ".join(rng.choices(tokens, k=rng.randint(0, 5))) or "."
                 for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 3))
            ]
            features = ClusterFeatures(make_cluster(docs))
            n = len(features.cluster.sentences)
            for i in range(n):
                for j in range(n):
                    ij = cosine_similarity(features, i, j)
                    assert ij == cosine_similarity(features, j, i)
                    assert 0.0 <= ij <= 1.0


# Every document ends with an empty sentence, one of the token "ash" alone,
# which is in every document and so weighs nothing, and a one-token one.
WORDS = ["ash", "birch", "cedar", "dune", "elm", "fern"]
sentence_text = st.lists(st.sampled_from(WORDS), max_size=6).map(
    lambda words: " ".join(words) or "."
)
documents = st.lists(
    st.tuples(st.lists(sentence_text, max_size=5), st.sampled_from(WORDS[1:])),
    min_size=1, max_size=4,
).map(lambda docs: [sentences + [".", "ash", single] for sentences, single in docs])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(docs=documents, seed=st.integers(0, 2**32 - 1))
def test_cosine_norms_and_capped_extraction_match_oracle(docs, seed):
    cluster = make_cluster(docs)
    features = ClusterFeatures(cluster)
    vectors = tfidf_vectors(cluster)
    n = len(vectors)
    assert list(features.norms) == [v.norm() or 1.0 for v in vectors]
    for i in range(n):
        for j in range(n):
            want = oracle_cosine(vectors[i], vectors[j])
            assert cosine_similarity(features, i, j) == want
    rng = random.Random(seed)
    rank_list = RankList.from_scores([rng.random() for _ in range(n)])
    for budget in (LengthBudget("words", 40), LengthBudget("bytes", 200)):
        for cap in (0.0, 0.5, 0.95, 1.0):
            got = extract_summary(rank_list, features, budget, cap)
            assert got.sentence_indices == reference_extract(rank_list, cluster, budget, cap)
