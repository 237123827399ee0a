"""Seeded synthetic corpora with the shape of DUC newswire clusters.

The licensed DUC 2003/2004 data cannot ship with the repository, so the
benchmark writes its own jsonl corpora.  Words are made of consonant-vowel
syllables and drawn from a Zipf distribution over a global vocabulary,
mixed with a per-cluster topic vocabulary, so rankers see topical
structure and the Porter stemmer sees a realistic repeat rate.  Lead
sentences are copied between documents of a cluster, like wire copy, so
``duplicate_stats`` finds repeats.  Every sentence starts with a capital
letter and ends with a word of at least four letters and a period, so the
segmenter splits it without tripping on abbreviations or initials.

Only the standard library is used, and only ``random.Random`` methods
built on ``random()``, so a seed gives the same bytes on every platform.
Each cluster has its own generator, seeded from (seed, cluster index), so
a corpus of n clusters is a prefix of the corpus of n + 1 clusters.
"""

from __future__ import annotations

import json
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from random import Random

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_FUNCTION_WORDS = (
    "the", "of", "and", "to", "in", "a", "for", "on", "was", "with",
    "by", "at", "from", "that", "is", "as", "his", "their", "said", "after",
)


@dataclass(frozen=True)
class CorpusShape:
    clusters: int
    docs: int  # documents per cluster
    sentences: int  # sentences per cluster, split unevenly between documents
    reference_words: int  # approximate length of each reference summary
    references: int = 4
    vocabulary: int = 6000
    topic_words: int = 60
    topic_share: float = 0.35
    function_share: float = 0.3
    words_per_sentence: tuple[int, int] = (8, 22)  # content words
    lead_copy: float = 0.4  # chance a document reuses an earlier lead
    body_copy: float = 0.05  # chance a body sentence repeats an earlier one


class _Sampler:
    """Draws items with fixed weights by bisecting the cumulative sum."""

    def __init__(self, items, weights):
        self.items = list(items)
        self.cumulative = list(accumulate(weights))

    def draw(self, rng: Random) -> str:
        return self.items[bisect(self.cumulative, rng.random() * self.cumulative[-1])]


def _vocabulary(seed: int, size: int) -> list[str]:
    rng = Random(f"vocabulary:{seed}")
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        syllables = 2 + int(rng.random() * 3)
        word = "".join(
            _CONSONANTS[int(rng.random() * len(_CONSONANTS))]
            + _VOWELS[int(rng.random() * len(_VOWELS))]
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf(n: int) -> list[float]:
    return [1.0 / (rank + 1) for rank in range(n)]


def _sentence(rng: Random, shape: CorpusShape, common: _Sampler, topic: _Sampler) -> str:
    low, high = shape.words_per_sentence
    n_content = low + int(rng.random() * (high - low + 1))
    words: list[str] = []
    for _ in range(n_content):
        if rng.random() < shape.function_share:
            words.append(_FUNCTION_WORDS[int(rng.random() * len(_FUNCTION_WORDS))])
        sampler = topic if rng.random() < shape.topic_share else common
        words.append(sampler.draw(rng))
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _paraphrase(rng: Random, sentence: str) -> str:
    """Drop about a fifth of a sentence's inner words, as an abstract would."""
    words = sentence[:-1].split()
    kept = [w for i, w in enumerate(words) if i in (0, len(words) - 1) or rng.random() > 0.2]
    return " ".join(kept) + "."


def generate_cluster(seed: int, index: int, shape: CorpusShape, vocabulary: list[str]) -> dict:
    rng = Random(f"cluster:{seed}:{index}")
    common = _Sampler(vocabulary, _zipf(len(vocabulary)))
    # topic words come from the mid and low frequency ranks, as names and
    # subject terms of a news story do
    start = len(vocabulary) // 20
    topic_vocab = []
    while len(topic_vocab) < shape.topic_words:
        word = vocabulary[start + int(rng.random() * (len(vocabulary) - start))]
        if word not in topic_vocab:
            topic_vocab.append(word)
    topic = _Sampler(topic_vocab, _zipf(len(topic_vocab)))

    # a fixed total per cluster keeps the work of a pass nearly the same
    # from seed to seed, while document lengths still differ
    counts = [shape.sentences // shape.docs] * shape.docs
    for d in range(shape.sentences % shape.docs):
        counts[d] += 1
    for _ in range(2 * shape.docs):
        give, take = int(rng.random() * shape.docs), int(rng.random() * shape.docs)
        if counts[give] > 2:
            counts[give] -= 1
            counts[take] += 1
    documents = []
    leads: list[str] = []
    written: list[str] = []
    for d, n_sents in enumerate(counts):
        sentences = []
        for s in range(n_sents):
            if s == 0 and leads and rng.random() < shape.lead_copy:
                sentence = leads[int(rng.random() * len(leads))]
            elif s > 0 and written and rng.random() < shape.body_copy:
                sentence = written[int(rng.random() * len(written))]
            else:
                sentence = _sentence(rng, shape, common, topic)
            sentences.append(sentence)
        leads.append(sentences[0])
        written.extend(sentences)
        documents.append({"id": f"doc{d:02d}", "text": " ".join(sentences)})

    references = []
    for r in range(shape.references):
        parts: list[str] = []
        words = 0
        while words < shape.reference_words:
            if rng.random() < 0.5:
                sentence = _paraphrase(rng, written[int(rng.random() * len(written))])
            else:
                sentence = _sentence(rng, shape, common, topic)
            parts.append(sentence)
            words += len(sentence.split())
        references.append({"author": chr(ord("A") + r), "text": " ".join(parts)})
    return {
        "cluster_id": f"s{seed}-c{index:04d}",
        "documents": documents,
        "references": references,
    }


def corpus_lines(seed: int, shape: CorpusShape) -> list[str]:
    vocabulary = _vocabulary(seed, shape.vocabulary)
    return [
        json.dumps(generate_cluster(seed, i, shape, vocabulary), sort_keys=True)
        for i in range(shape.clusters)
    ]

