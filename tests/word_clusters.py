"""Synthetic clusters whose tokens are the sentences' surface words.

The package tokenizes a sentence into stemmed content words; the ranker
and feature tests want tokens they can read off the text, so
``word_cluster`` takes each sentence's ``words`` (lowercased, stopwords
kept, no stemming) as its tokens.
"""

from summ.corpus import DocumentCluster, Sentence, words


def word_cluster(docs, min_tokens=1) -> DocumentCluster:
    """A cluster of ``docs``, each a list of sentence texts, document i
    with id ``d{i}``, the sentences in that order.  A sentence is eligible
    for a summary when it has at least ``min_tokens`` tokens.  A document
    with no sentences is not in the cluster."""
    sentences = []
    for i, texts in enumerate(docs):
        for text in texts:
            tokens = tuple(words(text))
            sentences.append(Sentence(
                raw_text=text, tokens=tokens, doc_id=f"d{i}",
                eligible=len(tokens) >= min_tokens,
            ))
    return DocumentCluster("c", tuple(sentences))
