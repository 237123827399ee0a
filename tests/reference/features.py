"""The features the rankers and the redundancy cap share, by plain loops:
string-keyed TF-IDF vectors and their cosine (the form the package used
before ``ClusterFeatures`` held token-id arrays), the token entries, the
sentence products by columns, and the capped extraction."""

import math
from collections import Counter
from dataclasses import dataclass, field

from summ.corpus import DocumentCluster
from summ.summarizers import LengthBudget, RankList


@dataclass
class SentenceVector:
    """Sparse non-negative token weights; zero entries are never stored."""

    weights: dict[str, float]
    _norm: float | None = field(default=None, repr=False, compare=False)

    def norm(self) -> float:
        if self._norm is None:
            self._norm = math.sqrt(math.fsum(w * w for w in self.weights.values()))
        return self._norm

    def __bool__(self) -> bool:
        return bool(self.weights)


def cosine_similarity(a: SentenceVector, b: SentenceVector) -> float:
    """Cosine of two sparse vectors; 0 when either is empty.

    Sums use ``math.fsum`` so the result is independent of key order,
    which keeps the similarity exactly symmetric.
    """
    if not a or not b:
        return 0.0
    if len(b.weights) < len(a.weights):
        a, b = b, a
    dot = math.fsum(
        w * b.weights[t] for t, w in a.weights.items() if t in b.weights
    )
    if dot == 0.0:
        return 0.0
    return min(1.0, dot / (a.norm() * b.norm()))


def tfidf_vectors(cluster: DocumentCluster) -> list[SentenceVector]:
    """TF-IDF vector per sentence, aligned with sentence indices.

    tf is the within-sentence count; idf = ln(D / df) with document
    frequency taken over the cluster's own documents, the distinct doc ids
    of its sentences.  Tokens present in every document get weight 0 and
    are dropped.
    """
    doc_tokens: dict[str, set[str]] = {}
    for sentence in cluster.sentences:
        doc_tokens.setdefault(sentence.doc_id, set()).update(sentence.tokens)
    df = Counter()
    for tokens in doc_tokens.values():
        df.update(tokens)
    n_docs = len(doc_tokens)
    idf = {t: math.log(n_docs / d) for t, d in df.items() if d < n_docs}
    vectors = []
    for sentence in cluster.sentences:
        tf = Counter(sentence.tokens)
        vectors.append(
            SentenceVector(
                weights={t: c * idf[t] for t, c in tf.items() if t in idf}
            )
        )
    return vectors


def reference_cosines(cluster: DocumentCluster) -> dict[tuple[int, int], float]:
    """The oracle cosine of every sentence pair i < j."""
    vectors = tfidf_vectors(cluster)
    n = len(vectors)
    return {
        (i, j): cosine_similarity(vectors[i], vectors[j])
        for i in range(n) for j in range(i + 1, n)
    }


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


def reference_cross_products(rows, cols, values) -> dict[tuple[int, int], list]:
    """The terms of ``M @ M.T`` off the diagonal, for ``M[rows, cols] =
    values``, by a plain loop over the columns: each cell's products, one
    for each column its two rows share, in column order."""
    columns: dict[int, list] = {}
    for col, row, value in sorted(zip(cols.tolist(), rows.tolist(), values.tolist())):
        columns.setdefault(col, []).append((row, value))
    terms: dict[tuple[int, int], list] = {}
    for entries in columns.values():
        for a, x in entries:
            for b, y in entries:
                if a != b:
                    terms.setdefault((a, b), []).append(x * y)
    return terms


def reference_extract(
    rank_list: RankList, cluster: DocumentCluster, budget: LengthBudget, cap: float
) -> tuple[int, ...]:
    """``extract_summary`` over the string-keyed oracle vectors."""
    vectors = tfidf_vectors(cluster)
    chosen, used = [], 0
    for idx in rank_list.order():
        sentence = cluster.sentences[idx]
        if not sentence.eligible or any(
            cosine_similarity(vectors[idx], vectors[j]) > cap for j in chosen
        ):
            continue
        if budget.kind == "words":
            cost = len(sentence.raw_text.split())
        else:
            cost = len(sentence.raw_text.encode("utf-8")) + (1 if chosen else 0)
        if used + cost > budget.limit:
            break
        chosen.append(idx)
        used += cost
    return tuple(chosen)
