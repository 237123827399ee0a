"""Token counts pooled over a corpus: topicsum's corpus counts, and the
counts of any token pipeline over a corpus's sentences or documents."""

from collections import Counter
from itertools import chain

from summ.corpus import tokenize
from summ.summarizers import CorpusCounts


def sentence_counts(clusters, pipeline=None) -> Counter:
    """Token counts pooled over every built sentence of ``clusters``: its
    tokens or, with ``pipeline``, that function of its text."""
    return Counter(chain.from_iterable(
        pipeline(s.raw_text) if pipeline else s.tokens
        for cluster in clusters for s in cluster.sentences
    ))


def document_counts(records, pipeline=tokenize) -> Counter:
    """Token counts pooled over every raw document of ``records``,
    tokenized by ``pipeline``."""
    return Counter(chain.from_iterable(pipeline(d.text) for r in records for d in r.documents))


def pooled(counts: Counter) -> CorpusCounts:
    """Corpus counts for topicsum, totalled from the ``Counter``."""
    return CorpusCounts(counts, counts.total())


def corpus_counts(clusters) -> CorpusCounts:
    """Topicsum's corpus counts, from every sentence of ``clusters``."""
    return pooled(sentence_counts(clusters))
