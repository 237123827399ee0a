"""ROUGE-N recall: the evaluation metric and the peer-similarity measure.

Matching is the standard clipped n-gram count: per n-gram type the match
is min(candidate count, reference count), and recall normalizes by the
reference's n-gram total.  Multiple references combine by the arithmetic
mean of per-reference recalls (no jackknifing).

Candidates are counted per sentence so n-grams never span the join
between two extracted sentences; each reference is one flat token stream.
Scoring takes n-gram counts, a ``Counter`` per summary or reference and
order, so a caller counts each once and scores it against many others; a
cluster's many summaries are counted through its ``NgramIndex``.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, Iterable, Sequence

from . import log, porter
from .corpus import words
from .record import TupleRecord, _tuple_new
from .sums import left_sum

TokenLists = Sequence[Sequence[str]]


class RougeScore(TupleRecord):
    __slots__ = ()
    _fields = ("n", "recall", "match_count", "reference_count")

    def __new__(cls, n: int, recall: float, match_count: int, reference_count: int):
        return _tuple_new(cls, (n, recall, match_count, reference_count))


def prepare_text(text: str) -> list[str]:
    """Flat scoring-token stream for a reference text: its words stemmed,
    stopwords kept (the usual recall-evaluation setup for newswire
    summaries)."""
    # porter.stem is looked up on each call, as in ``corpus.tokenize``
    return list(map(porter.stem, words(text)))


def prepare_sentences(texts: Sequence[str]) -> list[list[str]]:
    """Per-sentence scoring-token streams for a candidate summary."""
    return [prepare_text(t) for t in texts]


def rouge_n_recall(
    candidate: Counter, references: Sequence[Counter], n: int
) -> RougeScore:
    """ROUGE-N recall of a candidate against one or more references, each
    given as the ``Counter`` of its n-grams of order ``n``.

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
        # the clipped match, walked over the Counter with fewer n-grams
        small, large = (
            (candidate, ref_counts) if len(candidate) <= len(ref_counts)
            else (ref_counts, candidate)
        )
        get = large.get
        match = 0
        for g, count in small.items():
            other = get(g, 0)
            match += count if count < other else other
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


def pairwise_sim_matrix(unigrams: Sequence[Counter]) -> list[list[float]]:
    """K x K matrix of unigram recalls between peer summaries, given as
    the ``Counter`` of each one's unigrams.

    ``M[i][j]`` scores summary i with summary j acting as the benchmark,
    so the matrix is generally asymmetric.  The diagonal is 1 by
    convention; an empty summary contributes 0 everywhere else.
    """
    k = len(unigrams)
    if k < 2:
        raise ValueError("pairwise similarity needs at least two summaries")
    for i, counts in enumerate(unigrams):
        if not counts:
            log.warning(__name__, "pairwise_sim_matrix: summary %d is empty", i)
    totals = [sum(counts.values()) for counts in unigrams]
    matrix = [[0.0] * k for _ in range(k)]
    for i in range(k):
        matrix[i][i] = 1.0
        for j in range(i + 1, k):
            if not unigrams[i] or not unigrams[j]:
                continue
            score = rouge_n_recall(unigrams[i], [unigrams[j]], 1)
            matrix[i][j] = score.recall
            # the clipped match is symmetric, so j against i shares it
            matrix[j][i] = score.match_count / totals[i]
    return matrix


def _grams(tokens: Sequence[str], n: int):
    """The n-grams of ``tokens`` in order; none runs past either end."""
    return zip(*(tokens[i:] for i in range(n)))


class NgramIndex:
    """One cluster's scoring n-grams, shared by the many summaries scored
    against its references and against each other.

    Each reference (``set_references``) and each distinct summary sentence
    (``add``) is tokenized once.  Each order numbers the references'
    n-grams.  A unit, one summary given as its sentence texts, is counted
    (``counts``) as the numbers of its sentences' n-grams that some
    reference holds.  No n-gram spans two sentences and no other n-gram
    can match, so ``rouge_n_recall`` scores these counts, against
    ``references``, exactly as it scores the ``Counter`` of the unit's
    n-grams taken sentence by sentence.
    """

    def __init__(self, orders: Sequence[int]):
        self.orders = tuple(orders)
        self.tokens: dict[str, list[str]] = {}
        self._vocab: dict[int, dict[tuple[str, ...], int]] = {}
        self._references: dict[int, list[Counter]] = {}
        self._ids: dict[tuple[int, str], list[int]] = {}

    def add(self, texts: Iterable[str], tokenize: Callable[[list[str]], TokenLists]) -> None:
        """Tokenize the distinct texts not seen yet, in one call."""
        new = [text for text in dict.fromkeys(texts) if text not in self.tokens]
        if new:
            self.tokens.update(zip(new, tokenize(new)))

    def set_references(self, streams: TokenLists) -> None:
        """Number and count each reference's flat token stream at every order."""
        for n in self.orders:
            vocab: dict[tuple[str, ...], int] = {}
            self._references[n] = [
                Counter(vocab.setdefault(g, len(vocab)) for g in _grams(tokens, n))
                for tokens in streams
            ]
            self._vocab[n] = vocab

    def references(self, n: int) -> list[Counter]:
        """Each reference's n-gram counts of order ``n``, by number."""
        return self._references[n]

    def counts(self, unit: tuple[str, ...], n: int) -> Counter:
        """The unit's order-``n`` n-grams that some reference holds, by
        number."""
        vocab = self._vocab[n]
        ids = []
        for text in unit:
            if (n, text) not in self._ids:
                grams = _grams(self.tokens[text], n)
                self._ids[n, text] = [i for i in map(vocab.get, grams) if i is not None]
            ids += self._ids[n, text]
        return Counter(ids)

    def unigrams(self, unit: tuple[str, ...]) -> Counter:
        """All of the unit's unigrams, by token: the peer summaries'
        ``pairwise_sim_matrix`` input, which no reference bounds."""
        return Counter(chain.from_iterable(self.tokens[text] for text in unit))
