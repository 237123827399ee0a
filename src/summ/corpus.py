"""Document clusters: loading, sentence segmentation and tokenization.

A cluster is a set of topically related documents that get summarized
jointly.  Loading runs in two steps: ``read_corpus`` parses and validates
every record of a corpus, and ``build_cluster`` segments one record's
documents into sentences, kept in document order (a sentence's index is
its position in ``DocumentCluster.sentences``), runs the token pipeline
and attaches the record's reference summaries.
Loaded clusters are immutable and safe to share across threads.

Two on-disk layouts are supported:

* ``duc-dir`` -- one directory per cluster containing ``docs/*.txt`` (one
  document per file) and optionally ``models/*.txt`` (one reference per
  file, filename stem = author id).
* ``jsonl`` -- one cluster per line::

      {"cluster_id": str,
       "documents": [{"id": str, "text": str}, ...],
       "references": [{"author": str, "text": str}, ...]}

All file I/O is strict UTF-8, and a byte-order mark opening a file is
dropped; undecodable bytes raise ``CorpusError``.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import porter
from .stopwords import STOPWORDS


class CorpusError(Exception):
    """Unreadable, malformed or empty corpus data."""


@dataclass(frozen=True)
class TokenizationConfig:
    """Token pipeline switches, applied as lowercase -> stopwords -> stem."""

    lowercase: bool = True
    remove_stopwords: bool = True
    stem: bool = True
    min_sentence_tokens: int = 3

    def __post_init__(self):
        if self.min_sentence_tokens < 1:
            raise ValueError("min_sentence_tokens must be >= 1")


#: Pipeline used for duplicate detection: surface forms, stopwords kept.
RAW_SEQUENCE_CONFIG = TokenizationConfig(
    lowercase=True, remove_stopwords=False, stem=False, min_sentence_tokens=1
)


@dataclass(frozen=True)
class Sentence:
    raw_text: str
    tokens: tuple[str, ...]
    doc_id: str
    eligible: bool = True  # long enough for summary membership


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass(frozen=True)
class ReferenceSummary:
    author_id: str
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("reference summary text must be non-empty")


class ClusterRecord(NamedTuple):
    """One cluster as read from disk and validated, not yet segmented."""

    cluster_id: str
    documents: tuple[Document, ...]  # raw document text
    references: tuple[ReferenceSummary, ...]


@dataclass(frozen=True)
class DocumentCluster:
    cluster_id: str
    documents: tuple[Document, ...]
    sentences: tuple[Sentence, ...]
    references: tuple[ReferenceSummary, ...] = ()

    def __len__(self) -> int:
        return len(self.sentences)


def _word_table(lowercase: bool) -> bytes:
    """Byte map for ``bytes.translate``: ASCII letters and digits kept
    (``A-Z`` lowered when asked), every other byte made a space."""
    table = bytearray(b" " * 256)
    for c in string.ascii_letters + string.digits:
        table[ord(c)] = ord(c.lower() if lowercase else c)
    return bytes(table)


_WORD_TABLES = {lowercase: _word_table(lowercase) for lowercase in (False, True)}

# Words whose trailing period does not end a sentence.  Lowercase, with the
# period included; single-letter initials are guarded separately.  Weekday
# abbreviations are deliberately absent: they collide with the verbs "sat"
# and "wed" and the noun "sun".
ABBREVIATIONS = frozenset(
    """
    adm. assn. ave. blvd. bros. capt. cmdr. co. col. corp. dept. dr. drs.
    e.g. etc. fig. ft. gen. gov. hon. i.e. inc. jr. lt. ltd. maj. messrs.
    mr. mrs. ms. mt. no. p.m. a.m. ph.d. prof. rep. reps. rev. sen. sens.
    sgt. sr. st. u.k. u.n. u.s. univ. v. vol. vs.
    jan. feb. mar. apr. jun. jul. aug. sep. sept. oct. nov. dec.
    """.split()
)

_BOUNDARY_RE = re.compile(r"[.!?]+[\"')\]]*(?=\s|$)")
_NEXT_START_RE = re.compile(r"\s+[\"'(\[]?[A-Z0-9]")


def _is_abbreviation(text: str, period_pos: int) -> bool:
    """True when the word ending at ``period_pos`` (inclusive) is guarded."""
    # the caller's text is joined with single spaces, its only whitespace
    start = text.rfind(" ", 0, period_pos) + 1
    word = text[start : period_pos + 1].lower()
    if word in ABBREVIATIONS:
        return True
    # single-letter initials such as "J." in "J. Smith"
    return len(word) == 2 and word[0].isalpha()


def segment_sentences(raw_text: str) -> list[str]:
    """Split text into sentences.

    Boundaries are runs of sentence-final punctuation followed by
    whitespace and a capital letter or digit (optionally quoted), unless
    the period belongs to a known abbreviation or initial.  Blank lines
    always separate sentences.  The segments preserve all non-whitespace
    characters of the input.
    """
    sentences: list[str] = []
    for paragraph in re.split(r"\n\s*\n", raw_text):
        chunk = " ".join(paragraph.split())
        if not chunk:
            continue
        start = 0
        for match in _BOUNDARY_RE.finditer(chunk):
            end = match.end()
            if end < len(chunk) and not _NEXT_START_RE.match(chunk, end):
                continue
            if "." in match.group() and _is_abbreviation(chunk, match.start()):
                continue
            segment = chunk[start:end].strip()
            if segment:
                sentences.append(segment)
            start = end
        tail = chunk[start:].strip()
        if tail:
            sentences.append(tail)
    return sentences


def tokenize(text: str, config: TokenizationConfig) -> list[str]:
    """Run the token pipeline: words, then the config stages.

    A word is a maximal run of ASCII letters and digits; any other
    character, non-ASCII included, separates words.  Stopword matching is
    exact, so it only fires on lowercase tokens; with ``lowercase`` off the
    pipeline is effectively case-sensitive.
    """
    # each non-ASCII code point, a lone surrogate too, encodes to one "?",
    # which the table turns into a space like every other separator
    tokens = (
        text.encode("ascii", "replace")
        .translate(_WORD_TABLES[config.lowercase])
        .decode("ascii")
        .split()
    )
    if config.remove_stopwords:
        tokens = [t for t in tokens if t not in STOPWORDS]
    if config.stem:
        # porter.stem is looked up on each call, so a wrapper patched onto
        # the module (the benchmark's call counter) sees every token
        tokens = list(map(porter.stem, tokens))
    return tokens


def cluster_from_sentences(
    cluster_id: str,
    doc_sentences: list[tuple[str, list[str]]],
    references: list[tuple[str, str]] | None = None,
    config: TokenizationConfig | None = None,
) -> DocumentCluster:
    """Build a cluster from pre-segmented sentences.

    ``doc_sentences`` is a list of ``(doc_id, sentences)`` pairs; the
    cluster keeps the sentences in that order.  This is the common
    constructor behind both loaders and is handy for synthetic clusters.
    """
    config = config or TokenizationConfig()
    refs = _checked_references(
        cluster_id,
        [doc_id for doc_id, _ in doc_sentences],
        not any(sents for _, sents in doc_sentences),
        references or [],
    )
    documents = []
    sentences: list[Sentence] = []
    for doc_id, sents in doc_sentences:
        documents.append(Document(doc_id=doc_id, text=" ".join(sents)))
        for raw in sents:
            tokens = tuple(tokenize(raw, config))
            sentences.append(
                Sentence(
                    raw_text=raw,
                    tokens=tokens,
                    doc_id=doc_id,
                    eligible=len(tokens) >= config.min_sentence_tokens,
                )
            )
    return DocumentCluster(
        cluster_id=cluster_id,
        documents=tuple(documents),
        sentences=tuple(sentences),
        references=refs,
    )


def _checked_references(
    cluster_id: str,
    doc_ids: list[str],
    empty: bool,
    references: list[tuple[str, str]],
) -> tuple[ReferenceSummary, ...]:
    """The cluster's references, once its ids and contents pass the checks."""
    if len(set(doc_ids)) != len(doc_ids):
        raise CorpusError(f"cluster {cluster_id!r}: duplicate document ids")
    if empty:
        raise CorpusError(f"empty cluster: {cluster_id!r} has no sentences")
    try:
        return tuple(ReferenceSummary(author_id=a, text=t) for a, t in references)
    except ValueError as exc:
        raise CorpusError(f"cluster {cluster_id!r}: {exc}") from None


def _record(
    cluster_id: str,
    raw_documents: list[tuple[str, str]],
    references: list[tuple[str, str]],
    source: str,
) -> ClusterRecord:
    # a document with any non-whitespace text segments into at least one
    # sentence, so the cluster is empty exactly when it has no documents
    for doc_id, text in raw_documents:
        if not text.strip():
            raise CorpusError(f"{source}: empty document {doc_id!r}")
    refs = _checked_references(
        cluster_id, [doc_id for doc_id, _ in raw_documents], not raw_documents, references
    )
    documents = tuple(Document(doc_id=d, text=t) for d, t in raw_documents)
    return ClusterRecord(cluster_id=cluster_id, documents=documents, references=refs)


def build_cluster(
    record: ClusterRecord, config: TokenizationConfig | None = None
) -> DocumentCluster:
    """Segment and tokenize one record that ``read_corpus`` returned."""
    return cluster_from_sentences(
        record.cluster_id,
        [(d.doc_id, segment_sentences(d.text)) for d in record.documents],
        [(r.author_id, r.text) for r in record.references],
        config,
    )


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig", errors="strict")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not valid UTF-8 ({exc})") from None
    except OSError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def _read_duc_dir(path: Path) -> ClusterRecord:
    docs_dir = path / "docs"
    if not docs_dir.is_dir():
        raise CorpusError(f"{path}: missing docs/ subdirectory")
    raw_documents = [
        (p.stem, _read_text(p)) for p in sorted(docs_dir.glob("*.txt"))
    ]
    if not raw_documents:
        raise CorpusError(f"{docs_dir}: no *.txt documents")
    references = []
    models_dir = path / "models"
    if models_dir.is_dir():
        references = [
            (p.stem, _read_text(p)) for p in sorted(models_dir.glob("*.txt"))
        ]
    return _record(path.name, raw_documents, references, str(path))


def _parse_jsonl_record(record, source: str) -> tuple[str, list, list]:
    if not isinstance(record, dict):
        raise CorpusError(f"{source}: record is not an object")
    try:
        cluster_id = record["cluster_id"]
        documents = [(d["id"], d["text"]) for d in record["documents"]]
        references = [
            (r["author"], r["text"]) for r in record.get("references", [])
        ]
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"{source}: malformed record ({exc!r})") from None
    fields = [cluster_id] + [x for pair in documents + references for x in pair]
    if not all(isinstance(x, str) for x in fields):
        raise CorpusError(f"{source}: malformed record (non-string field)")
    return cluster_id, documents, references


def _iter_jsonl(path: Path):
    text = _read_text(path)
    # split on "\n" only: str.splitlines() also breaks at U+0085, U+2028
    # and U+2029, which JSON strings may hold unescaped
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        source = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{source}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise CorpusError(f"{source}: invalid JSON (nested too deeply)") from None
        yield source, record


def read_corpus(path: str | Path, format: str) -> list[ClusterRecord]:
    """Read and validate every cluster under ``path``, sorted by cluster id.

    Nothing is segmented or tokenized, but every check of the build is
    made here, in file order, so ``build_cluster`` cannot fail on a record
    this returns.
    """
    path = Path(path)
    if format == "duc-dir":
        if not path.is_dir():
            raise CorpusError(f"{path}: not a directory")
        cluster_dirs = sorted(p for p in path.iterdir() if p.is_dir())
        if not cluster_dirs:
            raise CorpusError(f"{path}: no cluster directories")
        records = [_read_duc_dir(p) for p in cluster_dirs]
    elif format == "jsonl":
        if not path.is_file():
            raise CorpusError(f"{path}: not a file")
        records = [
            _record(*_parse_jsonl_record(record, source), source)
            for source, record in _iter_jsonl(path)
        ]
        if not records:
            raise CorpusError(f"{path}: no clusters")
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    records.sort(key=lambda r: r.cluster_id)
    seen = Counter(r.cluster_id for r in records)
    dupes = [cid for cid, n in seen.items() if n > 1]
    if dupes:
        raise CorpusError(f"{path}: duplicate cluster ids {dupes}")
    return records


def load_corpus(
    path: str | Path,
    format: str,
    config: TokenizationConfig | None = None,
) -> list[DocumentCluster]:
    """Load every cluster under ``path``, sorted by cluster id."""
    config = config or TokenizationConfig()
    return [build_cluster(record, config) for record in read_corpus(path, format)]


def duplicate_stats(cluster: DocumentCluster) -> int:
    """Count distinct sentence token sequences occurring at least twice.

    Sequences are the lowercased, punctuation-stripped surface tokens
    (stopwords kept, no stemming), so near-identical wire copy in
    different documents counts as a repeat.
    """
    counts = Counter(
        tuple(tokenize(s.raw_text, RAW_SEQUENCE_CONFIG)) for s in cluster.sentences
    )
    return sum(1 for n in counts.values() if n >= 2)
