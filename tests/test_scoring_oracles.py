"""Differential tests: batched wcs, integer cwcs and counted ROUGE
against the plain paths.

The reference implementations are the original per-restart loop of
``wcs_aggregate`` (with its 1-D simplex projection, in
``wcs_reference.py``) and, below, the original ``Fraction`` sums of
``cwcs_aggregate`` and the original token-list ROUGE path, in which
every recall re-counts both sides, the peer matrix counts each pair
afresh and the oracle tokenizes the references itself.  The
per-cluster ``NgramIndex`` is checked through the public Counter
functions: its counts must score as the ``ngram_counts`` they stand for.
The package's versions must reproduce their references exactly (``==``,
no tolerance), since reports are compared byte for byte.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Sequence
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from summ import consensus
from summ.consensus import (
    WCS_MAX_ITER,
    WCS_TOL,
    _common_length,
    _project_row,
    cwcs_aggregate,
    cwcs_raw_weights,
    cwcs_weights,
    oracle_select,
    wcs_aggregate,
)
from summ.corpus import ReferenceSummary
from summ.rouge import (
    NgramIndex,
    RougeScore,
    TokenLists,
    pairwise_sim_matrix,
    prepare_sentences,
    prepare_text,
    rouge_n_recall,
)
from summ.summarizers import RankList
from summ.sums import left_sum

from ngram_counting import ngram_counts, ngrams
from wcs_reference import reference_project_simplex, reference_wcs_aggregate


# -- reference: cwcs in exact rationals ----------------------------------------


def reference_cwcs_aggregate(
    rank_lists: Sequence[RankList], weights: Sequence[float]
) -> RankList:
    """Weighted sum of normalized rank scores, each sentence's summed as a
    ``Fraction`` and rounded to a float once."""
    n = _common_length(rank_lists)
    k = len(rank_lists)
    if len(weights) != k:
        raise ValueError("one weight per rank list is required")
    exact_weights = [Fraction(w) for w in weights]
    scores = []
    for i in range(n):
        if n == 1:
            score = Fraction(sum(exact_weights))
        else:
            score = sum(
                (w * Fraction(n - rl.ranks[i], n - 1)
                 for w, rl in zip(exact_weights, rank_lists)),
                start=Fraction(0),
            )
        scores.append(float(score))
    return RankList.from_scores(scores)


# -- reference: ROUGE on token lists -------------------------------------------


def reference_ngrams(tokens: list[str] | tuple[str, ...], n: int) -> Counter:
    """Multiset of n-grams of ``tokens``; never crosses the list boundary."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(
        tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
    )


def _candidate_ngrams(candidate: TokenLists, n: int) -> Counter:
    counts = Counter()
    for sentence_tokens in candidate:
        counts.update(reference_ngrams(list(sentence_tokens), n))
    return counts


def reference_rouge_n_recall(candidate: TokenLists, references: TokenLists, n: int) -> RougeScore:
    """ROUGE-N recall of ``candidate`` (token lists per sentence) against
    one or more references (one flat token list each)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not references:
        raise ValueError("at least one reference is required")
    cand_counts = _candidate_ngrams(candidate, n)
    recalls = []
    match_total = 0
    reference_total = 0
    for reference in references:
        ref_counts = reference_ngrams(list(reference), n)
        ref_size = sum(ref_counts.values())
        if ref_size == 0:
            continue
        match = sum(
            min(c, cand_counts[g]) for g, c in ref_counts.items() if g in cand_counts
        )
        recalls.append(match / ref_size)
        match_total += match
        reference_total += ref_size
    if not recalls:
        raise ValueError(f"no scorable reference: none has {n}-grams")
    return RougeScore(
        n=n,
        recall=left_sum(recalls) / len(recalls),
        match_count=match_total,
        reference_count=reference_total,
    )


def reference_pairwise_sim_matrix(summaries: Sequence[TokenLists]) -> list[list[float]]:
    """K x K matrix of unigram recalls between peer summaries."""
    k = len(summaries)
    if k < 2:
        raise ValueError("pairwise similarity needs at least two summaries")
    flat = [[t for sent in s for t in sent] for s in summaries]
    matrix = [[0.0] * k for _ in range(k)]
    for i in range(k):
        matrix[i][i] = 1.0
        for j in range(k):
            if i == j or not flat[i] or not flat[j]:
                continue
            matrix[i][j] = reference_rouge_n_recall(summaries[i], [flat[j]], 1).recall
    return matrix


def reference_cwcs_raw_weights(summaries: Sequence[TokenLists]) -> list[float]:
    """Mean unigram recall of each summary against its peers."""
    k = len(summaries)
    if k < 2:
        raise ValueError("peers required: need at least two summaries")
    matrix = reference_pairwise_sim_matrix(summaries)
    return [
        left_sum(matrix[i][j] for j in range(k) if j != i) / (k - 1) for i in range(k)
    ]


def reference_cwcs_weights(summaries: Sequence[TokenLists]) -> tuple[float, ...]:
    """Peer-agreement weights, normalized to the simplex."""
    raw = reference_cwcs_raw_weights(summaries)
    total = left_sum(raw)
    if total == 0.0:
        return tuple(1.0 / len(raw) for _ in raw)
    return tuple(r / total for r in raw)


def reference_oracle_select(
    candidate_summaries: Sequence[TokenLists],
    references: Sequence[ReferenceSummary],
    n: int = 1,
) -> tuple[int, RougeScore]:
    """Index and score of the candidate scoring highest against the
    references (ties go to the smaller index)."""
    if not references:
        raise ValueError("oracle requires reference summaries")
    if not candidate_summaries:
        raise ValueError("at least one candidate summary is required")
    reference_streams = [prepare_text(r.text) for r in references]
    best_index = 0
    best_score = None
    for i, candidate in enumerate(candidate_summaries):
        score = reference_rouge_n_recall(candidate, reference_streams, n)
        if best_score is None or score.recall > best_score.recall:
            best_index, best_score = i, score
    return best_index, best_score


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


# -- wcs -------------------------------------------------------------------


def assert_same_wcs(rank_lists, lam, max_iter=WCS_MAX_ITER):
    expected, _ = reference_wcs_aggregate(rank_lists, lam, WCS_TOL, max_iter)
    # patched here, not by a fixture: hypothesis rejects function-scoped ones
    with patch.object(consensus, "WCS_MAX_ITER", max_iter):
        got = wcs_aggregate(rank_lists, lam)
    assert got.rank_list == expected.rank_list
    assert got.weights == expected.weights
    assert got.iterations == expected.iterations
    assert got.objective == expected.objective
    assert got.converged == expected.converged
    assert type(got.iterations) is int and type(got.converged) is bool


@st.composite
def rank_list_sets(draw, k_max=6):
    k = draw(st.integers(2, k_max))
    n = draw(st.integers(1, 40))
    # few distinct values force tied scores, and so tied ranks across systems
    values = st.sampled_from([0.0, 0.5, 1.0]) if draw(st.booleans()) else st.floats(0, 1)
    return [
        RankList.from_scores(draw(st.lists(values, min_size=n, max_size=n)))
        for _ in range(k)
    ]


# (lambda, step cap) pairs
wcs_configs = st.tuples(st.sampled_from([0.0, 0.1, 0.5, 0.99]), st.sampled_from([1, 2, 500]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rank_lists=rank_list_sets(), config=wcs_configs)
def test_batched_wcs_matches_sequential_restarts(rank_lists, config):
    assert_same_wcs(rank_lists, *config)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rank_lists=rank_list_sets(k_max=11), config=wcs_configs)
def test_batched_wcs_matches_beyond_eight_systems(rank_lists, config):
    # from eight entries up numpy sums rows pairwise, not left to right
    assert_same_wcs(rank_lists, *config)


def many_short_rank_lists(seed: int) -> list[RankList]:
    """Six rank lists over 24 sentences, a many-short benchmark cluster's
    shape: each system mixes a shared ranking with its own noise, in its
    own proportion."""
    rng = random.Random(seed)
    shared = [rng.random() for _ in range(24)]
    lists = []
    for _ in range(6):
        agreement = rng.random()
        scores = [agreement * s + (1.0 - agreement) * rng.random() for s in shared]
        lists.append(RankList.from_scores(scores))
    return lists


def test_batched_wcs_matches_on_the_many_short_shape():
    # restarts leave the batch at 3-12 different steps per case and a vertex
    # or edge start wins in most, so winners that left the batch early are
    # checked
    for seed in range(120):
        assert_same_wcs(many_short_rank_lists(seed), 0.5)


def assert_each_restart_steps_once(rank_lists, lam):
    """One row projection per step of each restart, and no more."""
    _, traces = reference_wcs_aggregate(rank_lists, lam, WCS_TOL, WCS_MAX_ITER)
    # a trace holds two objectives per step plus the final one
    steps = sum(len(trace) // 2 for trace in traces)
    calls = 0

    def counted(y):
        nonlocal calls
        calls += 1
        return _project_row(y)

    with patch.object(consensus, "_project_row", counted):
        wcs_aggregate(rank_lists, lam)
    assert calls == steps


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rank_lists=rank_list_sets(), lam=st.sampled_from([0.1, 0.5]))
def test_each_restart_runs_once(rank_lists, lam):
    assert_each_restart_steps_once(rank_lists, lam)


def test_each_restart_runs_once_on_the_many_short_shape():
    for seed in range(20):
        for lam in (0.1, 0.5):
            assert_each_restart_steps_once(many_short_rank_lists(seed), lam)


def test_wcs_identical_and_reversed_lists_match():
    forward = RankList.from_scores([4.0, 3.0, 2.0, 1.0])
    backward = RankList.from_scores([1.0, 2.0, 3.0, 4.0])
    for lists in ([forward, forward], [forward, backward], [forward, backward, forward]):
        for lam in (0.0, 0.1, 0.5, 0.99):
            assert_same_wcs(lists, lam)


@settings(max_examples=200, deadline=None)
@given(y=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
def test_row_projection_matches_the_one_dimensional_projection(y):
    row = tuple(_project_row(y))
    assert row == reference_project_simplex(y)


def test_projection_of_entries_too_large_fails():
    # subtracting 1 from 1e17 is lost to rounding, so no entry is supported
    with pytest.raises(IndexError):
        reference_project_simplex([1e17, 0.0])
    with pytest.raises(ValueError, match="too large"):
        _project_row([1e17, 0.0])


# -- cwcs ------------------------------------------------------------------


@st.composite
def weighted_rank_lists(draw):
    k = draw(st.integers(1, 11))
    n = draw(st.integers(1, 40))
    values = st.sampled_from([0.0, 0.5, 1.0]) if draw(st.booleans()) else st.floats(0, 1)
    rank_lists = [
        RankList.from_scores(draw(st.lists(values, min_size=n, max_size=n)))
        for _ in range(k)
    ]
    # 1e-300 and 5e-324 need denominators far beyond a float's exponent
    raw = draw(st.lists(st.sampled_from([0.0, 1e-300, 5e-324, 1 / 3]) | st.floats(0, 1),
                        min_size=k, max_size=k))
    total = sum(raw)
    if total == 0.0:
        return rank_lists, tuple(1.0 / k for _ in raw)
    return rank_lists, tuple(w / total for w in raw)


_THREE = [
    RankList.from_scores(scores)
    for scores in ([0.0, 1.0, 0.5, 1.0], [1.0, 0.5, 1.0, 0.0], [0.5, 1.0, 0.0, 1.0])
]


@settings(max_examples=300, deadline=None)
@given(case=weighted_rank_lists())
@example(case=(_THREE, (1 / 3, 1 / 3, 1 / 3)))
@example(case=(_THREE, (1.0, 0.0, 1e-300)))
@example(case=(_THREE[:1], (1.0,)))
def test_integer_cwcs_matches_fractions(case):
    rank_lists, weights = case
    got = cwcs_aggregate(rank_lists, weights)
    expected = reference_cwcs_aggregate(rank_lists, weights)
    assert got.scores == expected.scores
    assert got == expected


# -- ROUGE, peer matrix, cwcs weights, oracle --------------------------------------

WORDS = ["storm", "coast", "flood", "crew", "line", "vote", "the", "a"]

sentences = st.lists(st.sampled_from(WORDS), max_size=8)
summaries = st.lists(sentences, max_size=4)  # may be empty, or hold empty sentences
reference_streams = st.lists(st.lists(st.sampled_from(WORDS), max_size=12), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(tokens=st.lists(st.sampled_from(WORDS), max_size=12), n=st.integers(1, 5))
def test_ngrams_match_slicing(tokens, n):
    # same n-grams, counts and first-seen order
    assert list(ngrams(tokens, n).items()) == list(reference_ngrams(tokens, n).items())


@settings(max_examples=200, deadline=None)
@given(candidate=summaries, references=reference_streams)
# the match walks the side with fewer distinct n-grams: the candidate's here
@example(
    candidate=[["storm", "storm"], ["the", "storm", "coast"]],
    references=[["the", "storm", "coast", "flood", "the", "crew", "line", "vote"]],
)
# the first reference's here, the candidate's against the second
@example(
    candidate=[["storm", "coast", "flood"], ["crew", "storm", "storm"]],
    references=[
        ["storm", "storm", "the"],
        ["a", "crew", "line", "vote", "the", "coast", "flood", "storm"],
    ],
)
def test_counted_recall_matches_token_lists(candidate, references):
    for n in (1, 2, 3, 4):  # short references lack the higher orders
        expected = outcome(reference_rouge_n_recall, candidate, references, n)
        counted = [ngram_counts([tokens], n) for tokens in references]
        got = outcome(rouge_n_recall, ngram_counts(candidate, n), counted, n)
        assert got == expected
        # an n-gram held at count zero matches nothing, on either side: the
        # candidate padded with every reference n-gram walks the references,
        # the references padded with the candidate's n-grams walk the candidate
        padded = ngram_counts(candidate, n)
        padded.update(dict.fromkeys(chain.from_iterable(counted), 0))
        assert outcome(rouge_n_recall, padded, counted, n) == expected
        for counts in counted:
            counts.update(dict.fromkeys(ngram_counts(candidate, n), 0))
        assert outcome(rouge_n_recall, ngram_counts(candidate, n), counted, n) == expected


@settings(max_examples=200, deadline=None)
@given(peers=st.lists(summaries, min_size=1, max_size=6))
def test_peer_matrix_and_cwcs_weights_match(peers):
    unigrams = [ngram_counts(s, 1) for s in peers]
    assert outcome(pairwise_sim_matrix, unigrams) == outcome(
        reference_pairwise_sim_matrix, peers
    )
    raw = outcome(cwcs_raw_weights, unigrams)
    assert raw == outcome(reference_cwcs_raw_weights, peers)
    if isinstance(raw, list):
        assert cwcs_weights(raw) == reference_cwcs_weights(peers)


reference_texts = st.lists(
    # "." holds no token: a reference without n-grams of any order
    st.lists(st.sampled_from(WORDS + ["Storms", "."]), max_size=12).map(
        lambda words: " ".join(words) or "."
    ),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(candidates=st.lists(summaries, max_size=6), texts=reference_texts)
def test_oracle_pick_matches(candidates, texts):
    references = [ReferenceSummary(f"r{i}", text) for i, text in enumerate(texts)]
    expected = outcome(reference_oracle_select, candidates, references, 1)
    got = outcome(
        oracle_select,
        [ngram_counts(c, 1) for c in candidates],
        [ngram_counts([prepare_text(r.text)], 1) for r in references],
        1,
    )
    assert got == expected


# -- per-cluster n-gram index -------------------------------------------------------

# "." holds no token; one or two words are shorter than the higher orders
sentence_texts = st.lists(st.sampled_from(WORDS + ["Storms", "."]), max_size=8).map(
    lambda words: " ".join(words) or "."
)


@st.composite
def scored_clusters(draw):
    """Units drawn from a small pool of sentences, so that summaries share
    sentences; a unit may be empty.  References may lack some orders."""
    pool = draw(st.lists(sentence_texts, min_size=1, max_size=8))
    picks = st.lists(st.integers(0, len(pool) - 1), max_size=5)
    units = [tuple(pool[i] for i in p) for p in draw(st.lists(picks, min_size=1, max_size=6))]
    references = draw(reference_texts.filter(bool))
    return units, references


def indexed(units, references, orders=(1, 2, 3, 4)) -> NgramIndex:
    index = NgramIndex(orders)
    index.add(chain.from_iterable(units), prepare_sentences)
    index.set_references([prepare_text(text) for text in references])
    return index


def counted(unit, n: int) -> Counter:
    return ngram_counts(prepare_sentences(list(unit)), n)


def index_counts(index: NgramIndex, units, n: int) -> list[Counter]:
    return [index.counts(unit, n) for unit in units]


@settings(max_examples=200, deadline=None)
@given(case=scored_clusters())
def test_index_counts_score_as_counted_ngrams(case):
    units, references = case
    index = indexed(units, references)
    assert sorted(index.tokens) == sorted(set(chain.from_iterable(units)))
    for n in (1, 2, 3, 4):
        refs = [ngram_counts([prepare_text(text)], n) for text in references]
        assert [sum(c.values()) for c in index.references(n)] == [
            sum(c.values()) for c in refs
        ]
        for unit, counts in zip(units, index_counts(index, units, n)):
            assert outcome(rouge_n_recall, counts, index.references(n), n) == outcome(
                rouge_n_recall, counted(unit, n), refs, n
            )


@settings(max_examples=200, deadline=None)
@given(case=scored_clusters())
def test_index_unigrams_give_the_peer_matrix(case):
    units, references = case
    index = indexed(units, references)
    unigrams = [index.unigrams(unit) for unit in units]
    counts = [counted(unit, 1) for unit in units]
    assert outcome(pairwise_sim_matrix, unigrams) == outcome(pairwise_sim_matrix, counts)
    assert outcome(cwcs_raw_weights, unigrams) == outcome(cwcs_raw_weights, counts)


@settings(max_examples=200, deadline=None)
@given(case=scored_clusters())
def test_index_oracle_pick_matches_oracle_select(case):
    units, references = case
    index = indexed(units, references, orders=(1,))
    expected = outcome(
        oracle_select,
        [counted(unit, 1) for unit in units],
        [ngram_counts([prepare_text(text)], 1) for text in references],
        1,
    )
    assert outcome(oracle_select, index_counts(index, units, 1), index.references(1), 1) == (
        expected
    )


def test_index_covers_the_edge_cases():
    shared = "The storm hit the coast."
    units = [(), ("Storm.", shared), (shared, "Crews fixed the line."), (".",)]
    references = ["the storm", ".", "storm hit coast"]
    index = indexed(units, references)
    # "." has no token, so neither the last unit nor the second reference
    # has n-grams of any order; "storm." is shorter than a bigram
    assert [bool(c) for c in index.references(1)] == [True, False, True]
    assert any(index.references(3)) and not any(index.references(4))
    assert index.counts((), 1) == Counter() == index.counts((".",), 1)
    assert index.counts(("Storm.",), 2) == Counter()
    for n in (1, 2, 3):
        refs = [ngram_counts([prepare_text(text)], n) for text in references]
        got = [rouge_n_recall(c, index.references(n), n) for c in index_counts(index, units, n)]
        assert got == [rouge_n_recall(counted(unit, n), refs, n) for unit in units]
    assert rouge_n_recall(index.counts((), 1), index.references(1), 1).recall == 0.0
    # the shared sentence's n-grams are counted once in each unit that holds it
    assert index.counts(units[1], 1) + index.counts(units[2], 1) == index.counts(
        (shared, shared, "Storm.", "Crews fixed the line."), 1
    )
    with pytest.raises(ValueError, match="no scorable reference: none has 4-grams"):
        rouge_n_recall(index.counts(units[1], 4), index.references(4), 4)
