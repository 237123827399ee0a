"""Document clusters: loading, sentence segmentation and tokenization.

A cluster is a set of topically related documents that get summarized
jointly.  Loading runs in two steps: ``read_corpus`` parses and validates
every record of a corpus, and ``build_cluster`` segments one record's
documents into sentences, kept in document order (a sentence's index is
its position in ``DocumentCluster.sentences``), and tokenizes each
sentence.
Loaded clusters are immutable.

Two on-disk layouts are supported:

* ``duc-dir`` -- one directory per cluster containing ``docs/*.txt`` (one
  document per file) and optionally ``models/*.txt`` (one reference per
  file, filename stem = author id).
* ``jsonl`` -- one cluster per line::

      {"cluster_id": str,
       "documents": [{"id": str, "text": str}, ...],
       "references": [{"author": str, "text": str}, ...]}

All file I/O is strict UTF-8, and a byte-order mark opening a file is
dropped; undecodable bytes raise ``CorpusError``.  So does a jsonl string
that escapes a lone surrogate (``"\\ud800"``: valid JSON, but no text) and
an integer longer than Python's digit limit for ``int`` conversion.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

from . import porter
from .record import FrozenRecord, TupleRecord, _tuple_new
from .stopwords import STOPWORDS


class CorpusError(Exception):
    """Unreadable, malformed or empty corpus data."""


#: Tokens a sentence needs to be eligible for a summary.
MIN_SENTENCE_TOKENS = 3


class Sentence(TupleRecord):
    __slots__ = ()
    _fields = ("raw_text", "tokens", "doc_id", "eligible")

    def __new__(
        cls,
        raw_text: str,
        tokens: tuple[str, ...],
        doc_id: str,
        eligible: bool = True,  # long enough for summary membership
    ):
        return _tuple_new(cls, (raw_text, tokens, doc_id, eligible))


class Document(TupleRecord):
    __slots__ = ()
    _fields = ("doc_id", "text")

    def __new__(cls, doc_id: str, text: str):
        return _tuple_new(cls, (doc_id, text))


class ReferenceSummary(TupleRecord):
    __slots__ = ()
    _fields = ("author_id", "text")

    def __new__(cls, author_id: str, text: str):
        return _tuple_new(cls, (author_id, text))


class ClusterRecord(TupleRecord):
    """One cluster as read from disk and validated, not yet segmented."""

    __slots__ = ()
    _fields = ("cluster_id", "documents", "references")

    def __new__(
        cls,
        cluster_id: str,
        documents: tuple[Document, ...],  # raw document text
        references: tuple[ReferenceSummary, ...],
    ):
        return _tuple_new(cls, (cluster_id, documents, references))


class DocumentCluster(FrozenRecord):
    """A segmented cluster, its documents known only by their sentences'
    ``doc_id``s: ``_record`` rejects a blank document, and every other
    document segments into at least one sentence."""

    _fields = ("cluster_id", "sentences", "references")

    def __init__(
        self,
        cluster_id: str,
        sentences: tuple[Sentence, ...],
        references: tuple[ReferenceSummary, ...] = (),
    ):
        self._set(cluster_id, sentences, references)

    def __len__(self) -> int:
        return len(self.sentences)


# byte map for ``bytes.translate``: ASCII letters and digits kept, ``A-Z``
# lowered, every other byte made a space
_WORD_TABLE = bytes(
    ord(chr(b).lower()) if b < 128 and chr(b).isalnum() else ord(" ")
    for b in range(256)
)

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


def words(text: str) -> list[str]:
    """The surface words of ``text``: each maximal run of ASCII letters and
    digits, lowercased; any other character, non-ASCII included,
    separates words."""
    # each non-ASCII code point, a lone surrogate too, encodes to one "?",
    # which the table turns into a space like every other separator
    return text.encode("ascii", "replace").translate(_WORD_TABLE).decode("ascii").split()


def tokenize(text: str) -> list[str]:
    """The content tokens of ``text``: its words, stopwords dropped, stemmed."""
    # porter.stem is looked up on each call, so a wrapper patched onto the
    # module (the benchmark's call counter) sees every token
    return list(map(porter.stem, [w for w in words(text) if w not in STOPWORDS]))


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
    if any(not text.strip() for _, text in references):
        raise CorpusError(f"cluster {cluster_id!r}: reference summary text must be non-empty")
    doc_ids = {doc_id for doc_id, _ in raw_documents}
    if len(doc_ids) != len(raw_documents):
        raise CorpusError(f"cluster {cluster_id!r}: duplicate document ids")
    if not raw_documents:
        raise CorpusError(f"empty cluster: {cluster_id!r} has no sentences")
    return ClusterRecord(
        cluster_id,
        tuple(Document(d, t) for d, t in raw_documents),
        tuple(ReferenceSummary(a, t) for a, t in references),
    )


def build_cluster(record: ClusterRecord) -> DocumentCluster:
    """Segment and tokenize one record that ``read_corpus`` returned; the
    cluster keeps the record's references, not its documents' raw text."""
    sentences = []
    for document in record.documents:
        for raw in segment_sentences(document.text):
            tokens = tuple(tokenize(raw))
            sentences.append(Sentence(
                raw, tokens, document.doc_id, len(tokens) >= MIN_SENTENCE_TOKENS
            ))
    return DocumentCluster(record.cluster_id, tuple(sentences), record.references)


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
    try:  # JSON can escape a lone surrogate, which no UTF-8 text holds
        "".join(fields).encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusError(f"{source}: malformed record (lone surrogate in a string)") from None
    return cluster_id, documents, references


def invalid_json(exc: ValueError | RecursionError) -> str:
    """Why ``json.loads`` rejected a corpus line or a config file."""
    if isinstance(exc, RecursionError):
        return "invalid JSON (nested too deeply)"
    # a plain ValueError: an integer over Python's digit limit, or bad UTF-8
    return f"invalid JSON ({exc.msg if isinstance(exc, json.JSONDecodeError) else exc})"


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
        except (ValueError, RecursionError) as exc:
            raise CorpusError(f"{source}: {invalid_json(exc)}") from None
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


def load_corpus(path: str | Path, format: str) -> list[DocumentCluster]:
    """Load every cluster under ``path``, sorted by cluster id."""
    return [build_cluster(record) for record in read_corpus(path, format)]


def duplicate_stats(cluster: DocumentCluster) -> int:
    """Count distinct sentence token sequences occurring at least twice.

    Sequences are the sentences' ``words`` (stopwords kept, no stemming),
    so near-identical wire copy in different documents counts as a repeat.
    A sentence with no word is keyed by its raw text instead, so different
    word-less sentences (all non-ASCII, say) are not one repeat.
    """
    counts = Counter(tuple(words(s.raw_text)) or s.raw_text for s in cluster.sentences)
    return sum(1 for n in counts.values() if n >= 2)
