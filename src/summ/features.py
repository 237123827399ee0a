"""Term statistics shared by the rankers and the ROUGE scorer."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .corpus import DocumentCluster


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


def tfidf_vectors(cluster: DocumentCluster) -> list[SentenceVector]:
    """TF-IDF vector per sentence, aligned with sentence indices.

    tf is the within-sentence count; idf = ln(D / df) with document
    frequency taken over the cluster's own documents.  Tokens present in
    every document get weight 0 and are dropped.
    """
    doc_tokens: dict[str, set[str]] = {d.doc_id: set() for d in cluster.documents}
    for sentence in cluster.sentences:
        doc_tokens[sentence.doc_id].update(sentence.tokens)
    df = Counter()
    for tokens in doc_tokens.values():
        df.update(tokens)
    n_docs = len(cluster.documents)
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
