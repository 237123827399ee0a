"""Counter n-gram counts: the plain form in which the tests hand summaries
and references to ``rouge_n_recall`` and ``pairwise_sim_matrix``.

The package counts through ``rouge.NgramIndex``; the tests check that its
counts score exactly as these do.
"""

from collections import Counter

from summ.rouge import TokenLists, _grams


def ngrams(tokens: list[str] | tuple[str, ...], n: int) -> Counter:
    """Multiset of n-grams of ``tokens``; never crosses the list boundary."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(_grams(tokens, n))


def ngram_counts(token_lists: TokenLists, n: int) -> Counter:
    """Multiset of the ``n``-grams of ``token_lists``; no n-gram spans two
    lists.  A candidate passes one list per sentence, a reference its flat
    stream as the single list ``[tokens]``."""
    counts = Counter()
    for tokens in token_lists:
        counts.update(ngrams(list(tokens), n))
    return counts
