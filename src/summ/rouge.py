"""ROUGE-N recall: the evaluation metric and the peer-similarity measure.

Matching is the standard clipped n-gram count: per n-gram type the match
is min(candidate count, reference count), and recall normalizes by the
reference's n-gram total.  Multiple references combine by the arithmetic
mean of per-reference recalls (no jackknifing).

Candidates are counted per sentence so n-grams never span the join
between two extracted sentences; each reference is one flat token stream.
Scoring takes n-gram counts (``ngram_counts``), so a caller counts each
summary and reference once per order and scores it against many others.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .corpus import TokenizationConfig, tokenize
from .features import ngrams

logger = logging.getLogger(__name__)

#: Scoring pipeline: lowercase and stem, keep stopwords (the usual
#: recall-evaluation setup for newswire summaries).
ROUGE_TOKENIZATION = TokenizationConfig(
    lowercase=True, remove_stopwords=False, stem=True, min_sentence_tokens=1
)

TokenLists = Sequence[Sequence[str]]


@dataclass(frozen=True)
class RougeScore:
    n: int
    recall: float
    match_count: int
    reference_count: int


def prepare_text(text: str, config: TokenizationConfig = ROUGE_TOKENIZATION) -> list[str]:
    """Flat scoring-token stream for a reference text."""
    return tokenize(text, config)


def prepare_sentences(
    texts: Sequence[str], config: TokenizationConfig = ROUGE_TOKENIZATION
) -> list[list[str]]:
    """Per-sentence scoring-token streams for a candidate summary."""
    return [tokenize(t, config) for t in texts]


def ngram_counts(token_lists: TokenLists, n: int) -> Counter:
    """Multiset of the ``n``-grams of ``token_lists``; no n-gram spans two
    lists.  A candidate passes one list per sentence, a reference its flat
    stream as the single list ``[tokens]``."""
    counts = Counter()
    for tokens in token_lists:
        counts.update(ngrams(list(tokens), n))
    return counts


def rouge_n_recall(
    candidate: Counter, references: Sequence[Counter], n: int
) -> RougeScore:
    """ROUGE-N recall of a candidate against one or more references, each
    given as its ``ngram_counts`` of order ``n``.

    References with no n-grams of order ``n`` are excluded from the mean;
    if every reference is excluded there is nothing to score and a
    ``ValueError`` is raised.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not references:
        raise ValueError("at least one reference is required")
    recalls = []
    match_total = 0
    reference_total = 0
    for ref_counts in references:
        ref_size = sum(ref_counts.values())
        if ref_size == 0:
            continue
        match = sum(
            min(ref_counts[g], candidate[g]) for g in ref_counts.keys() & candidate.keys()
        )
        recalls.append(match / ref_size)
        match_total += match
        reference_total += ref_size
    if not recalls:
        raise ValueError(f"no scorable reference: none has {n}-grams")
    return RougeScore(
        n=n,
        recall=sum(recalls) / len(recalls),
        match_count=match_total,
        reference_count=reference_total,
    )


def pairwise_sim_matrix(unigrams: Sequence[Counter]) -> list[list[float]]:
    """K x K matrix of unigram recalls between peer summaries, given as
    one unigram ``ngram_counts`` each.

    ``M[i][j]`` scores summary i with summary j acting as the benchmark,
    so the matrix is generally asymmetric.  The diagonal is 1 by
    convention; an empty summary contributes 0 everywhere else.
    """
    k = len(unigrams)
    if k < 2:
        raise ValueError("pairwise similarity needs at least two summaries")
    for i, counts in enumerate(unigrams):
        if not counts:
            logger.warning("pairwise_sim_matrix: summary %d is empty", i)
    matrix = [[0.0] * k for _ in range(k)]
    for i in range(k):
        matrix[i][i] = 1.0
        for j in range(k):
            if i == j or not unigrams[i] or not unigrams[j]:
                continue
            matrix[i][j] = rouge_n_recall(unigrams[i], [unigrams[j]], 1).recall
    return matrix
