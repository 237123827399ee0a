"""Dict TF-IDF vectors: the per-sentence ``Counter`` form the package built
before ``summarizers.tfidf_vectors`` worked from token-id arrays.

The tests check with exact ``==`` that the package's arrays, and
``ClusterFeatures.vectors`` built from them, give these weights.
"""

import math
from collections import Counter

from summ.corpus import DocumentCluster
from summ.features import SentenceVector


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
