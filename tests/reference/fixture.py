"""The fixture corpus and its run settings, and the synthetic records,
clusters, corpora and rank lists the tests build."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from summ.corpus import DocumentCluster, Sentence, words
from summ.harness import RunConfig
from summ.summarizers import LengthBudget, RankList

FIXTURE = str(Path(__file__).resolve().parents[1] / "data" / "fixture.jsonl")
SRC = str(Path(__file__).resolve().parents[2] / "src")


def fixture_config(**overrides) -> RunConfig:
    """The fixture's run at a 50-word budget, with ``overrides``."""
    defaults = dict(
        corpus=FIXTURE,
        corpus_format="jsonl",
        budget=LengthBudget("words", 50),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def run_python(*args, **env) -> subprocess.CompletedProcess:
    """``python *args`` in a child process that imports ``summ`` from this
    checkout, with ``env`` added to its environment; its output as text."""
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True, text=True, timeout=120,
    )


def write_jsonl(path: Path, records) -> None:
    """Write ``records`` to ``path``, one JSON object a line."""
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def make_record(cluster_id="c1", texts=("Alpha beta gamma. Delta epsilon zeta.",),
                references=()) -> dict:
    """A jsonl record of ``texts``, document i with id ``d{i}``, and one
    reference per (author, text) pair of ``references``."""
    return {
        "cluster_id": cluster_id,
        "documents": [{"id": f"d{i}", "text": t} for i, t in enumerate(texts)],
        "references": [{"author": a, "text": t} for a, t in references],
    }


def solo_record(references=True) -> dict:
    """A record of two short documents on one storm, with one reference
    or none."""
    return make_record(
        "solo", ("The storm hit the coast. Crews fixed the lines.",
                 "The storm flooded roads. Crews worked all night."),
        [("A", "A storm hit the coast.")] if references else (),
    )


def record_words(lines) -> set[str]:
    """The surface words of every document and reference of the jsonl
    ``lines``; blank lines are skipped."""
    found = set()
    for line in filter(str.strip, lines):
        record = json.loads(line)
        for item in record["documents"] + record.get("references", []):
            found.update(words(item["text"]))
    return found


def word_cluster(docs, min_tokens=1) -> DocumentCluster:
    """A cluster of ``docs``, each a list of sentence texts, document i
    with id ``d{i}``, the sentences in that order.

    A sentence's tokens are its surface ``words`` (lowercased, stopwords
    kept, no stemming), which a test can read off the text.  A sentence is
    eligible for a summary when it has at least ``min_tokens`` tokens.  A
    document with no sentences is not in the cluster."""
    sentences = []
    for i, texts in enumerate(docs):
        for text in texts:
            tokens = tuple(words(text))
            sentences.append(Sentence(
                raw_text=text, tokens=tokens, doc_id=f"d{i}",
                eligible=len(tokens) >= min_tokens,
            ))
    return DocumentCluster("c", tuple(sentences))


def zipf_corpus(seed: int, clusters: int, docs: int, sentences: int) -> list:
    """``clusters`` clusters of ``docs`` x ``sentences`` sentences of 0-24
    words, drawn by a Zipf law over 400 words that each cluster rotates, so
    the clusters share a vocabulary but favour different words, and the
    frequent words repeat within sentences."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(400)]
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    corpus = []
    for c in range(clusters):
        p = np.roll(weights, 37 * c)
        p /= p.sum()
        corpus.append([
            [
                " ".join(rng.choice(vocab, size=int(rng.integers(0, 25)), p=p)) or "."
                for _ in range(sentences)
            ]
            for _ in range(docs)
        ])
    return corpus


def permutation_rank_lists(rng, k: int, n: int) -> list[RankList]:
    """``k`` rank lists of ``n`` sentences, each ranking by a permutation
    that ``rng`` shuffles."""
    lists = []
    for _ in range(k):
        ranks = list(range(1, n + 1))
        rng.shuffle(ranks)
        lists.append(RankList.from_scores([n - r for r in ranks]))
    return lists


def tied_rank_lists(rng, k: int, n: int, values=(0.0, 0.5, 1.0)) -> list[RankList]:
    """``k`` rank lists of ``n`` sentences whose scores ``rng`` picks from a
    few ``values``, so that ranks tie within and across the lists."""
    return [RankList.from_scores([rng.choice(values) for _ in range(n)]) for _ in range(k)]
