"""ROUGE on token lists: n-grams by slicing, the clipped match, ROUGE-N
recall and the peer matrix, each recall counting both sides afresh.  A
candidate is one token list per sentence, a reference one flat stream."""

from collections import Counter
from typing import Sequence

from summ.rouge import RougeScore, TokenLists
from summ.sums import left_sum


def ngrams(tokens: Sequence[str], n: int) -> Counter:
    """Multiset of n-grams of ``tokens``; never crosses the list boundary."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def ngram_counts(token_lists: TokenLists, n: int) -> Counter:
    """Multiset of the ``n``-grams of ``token_lists``; no n-gram spans two
    lists.  A candidate passes one list per sentence, a reference its flat
    stream as the single list ``[tokens]``."""
    counts = Counter()
    for tokens in token_lists:
        counts.update(ngrams(tokens, n))
    return counts


def clipped_match(candidate: TokenLists, reference: Sequence[str], n: int) -> tuple[int, int]:
    """The clipped ``n``-gram match of ``candidate`` against ``reference``
    (per n-gram the smaller of the two counts, summed), and the
    reference's n-gram total."""
    counts = ngram_counts(candidate, n)
    reference_counts = ngrams(reference, n)
    match = sum(min(c, counts[g]) for g, c in reference_counts.items())
    return match, sum(reference_counts.values())


def reference_rouge_n_recall(candidate: TokenLists, references: TokenLists, n: int) -> RougeScore:
    """ROUGE-N recall of ``candidate`` (token lists per sentence) against
    one or more references (one flat token list each)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not references:
        raise ValueError("at least one reference is required")
    recalls = []
    match_total = 0
    reference_total = 0
    for reference in references:
        match, ref_size = clipped_match(candidate, reference, n)
        if ref_size == 0:
            continue
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
