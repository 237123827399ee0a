import json
import random
import re
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summ.corpus import (
    ABBREVIATIONS,
    CorpusError,
    build_cluster,
    duplicate_stats,
    load_corpus,
    read_corpus,
    segment_sentences,
    tokenize,
    words,
)
from summ import porter
from summ.porter import stem
from summ.rouge import prepare_text
from summ.stopwords import STOPWORDS
from test_porter import oracle_stem
from word_clusters import word_cluster

FIXTURE = Path(__file__).parent / "data" / "fixture.jsonl"
BOM = "\ufeff".encode()


# text built from sentence punctuation, abbreviations, initials, numbers,
# line breaks and arbitrary characters, so boundaries of every kind occur
TEXT_PIECES = st.one_of(
    st.sampled_from([
        " ", "  ", "\n", "\n\n", "\t", ".", "!", "?", "...", '"', "'", "(", ")",
        "[", "]", "Mr.", "u.s.", "J.", "Jan.", "3.5", "The", "storm", "was", "and",
    ]),
    st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=8),
    st.text(max_size=4),
)
texts = st.lists(TEXT_PIECES, max_size=40).map("".join)


def load_one(path, format):
    [cluster] = load_corpus(path, format)
    return cluster


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def make_record(cluster_id="c1", texts=("Alpha beta gamma. Delta epsilon zeta.",),
                references=()):
    return {
        "cluster_id": cluster_id,
        "documents": [{"id": f"d{i}", "text": t} for i, t in enumerate(texts)],
        "references": [{"author": a, "text": t} for a, t in references],
    }


class TestSegmentation:
    def test_two_terminal_periods(self):
        assert segment_sentences("A cat sat. A dog ran.") == [
            "A cat sat.", "A dog ran."
        ]

    def test_abbreviation_guard(self):
        assert "dr." in ABBREVIATIONS
        segments = segment_sentences("Dr. Smith arrived. He spoke.")
        assert segments == ["Dr. Smith arrived.", "He spoke."]

    def test_empty_input(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n\n  ") == []

    def test_initials_and_numbers(self):
        assert segment_sentences("J. Smith paid 3.5 million. Prices rose.") == [
            "J. Smith paid 3.5 million.", "Prices rose.",
        ]

    def test_question_and_exclamation(self):
        assert segment_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_lowercase_continuation_not_split(self):
        assert segment_sentences("He arrived. then he left.") == [
            "He arrived. then he left."
        ]

    def test_blank_line_is_boundary(self):
        assert segment_sentences("one headline\n\nbody text here") == [
            "one headline", "body text here"
        ]

    def test_quotes_after_terminal(self):
        assert segment_sentences('"Stop." He left.') == ['"Stop."', "He left."]

    def test_non_whitespace_coverage(self):
        texts = [
            "Mr. Jones met Gov. Lee on Jan. 5. They spoke! Did it help? Nobody knows.",
            "First line\n\nSecond part. Third part.",
            "No terminal punctuation at all",
        ]
        for text in texts:
            segments = segment_sentences(text)
            assert "".join("".join(text.split())) == "".join(
                "".join(s.split()) for s in segments
            )


    @given(texts)
    def test_segments_keep_non_whitespace_in_order(self, text):
        segments = segment_sentences(text)
        assert "".join(text.split()) == "".join("".join(s.split()) for s in segments)


class TestTokenize:
    @given(texts, st.sampled_from([words, tokenize]))
    def test_tokens_of_text_are_tokens_of_segments(self, text, pipeline):
        by_segment = [t for s in segment_sentences(text) for t in pipeline(s)]
        assert pipeline(text) == by_segment

    @given(texts, st.sampled_from([words, tokenize, prepare_text]))
    def test_lowercase_tokens(self, text, pipeline):
        assert all(re.fullmatch(r"[a-z0-9]+", t) for t in pipeline(text))

    def test_full_pipeline(self):
        assert tokenize("The cats sat") == ["cat", "sat"]

    def test_identity_pipeline(self):
        assert words("x y z") == ["x", "y", "z"]

    def test_no_word_characters(self):
        for pipeline in (words, tokenize, prepare_text):
            assert pipeline("...") == []

    def test_idempotent_without_stemming(self):
        # the surface words, rejoined by spaces, are their own words
        rng = random.Random(7)
        vocab = ["storm", "the", "coast", "on", "Power", "ran", "a", "42", "U.S.", "don't"]
        for _ in range(50):
            text = " ".join(rng.choices(vocab, k=rng.randint(0, 12)))
            once = words(text)
            assert words(" ".join(once)) == once


# the word rule stated plainly, kept as the oracle for ``words``
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def oracle_words(text):
    return [w.lower() for w in _TOKEN_RE.findall(text)]


def oracle_tokens(text):
    """``tokenize``: the words, stopwords dropped, stemmed."""
    return [oracle_stem(w) for w in oracle_words(text) if w not in STOPWORDS]


def oracle_scoring_tokens(text):
    """``rouge.prepare_text``: the words stemmed, stopwords kept."""
    return [oracle_stem(w) for w in oracle_words(text)]


# each token pipeline the package runs, with its oracle
PIPELINES = [
    (words, oracle_words), (tokenize, oracle_tokens), (prepare_text, oracle_scoring_tokens),
]


# characters that trip a finder which lowercases the text first ("İ"
# lowers to "i" plus a combining dot) or matches with re.IGNORECASE (the
# Kelvin sign and long s match k and s), that encode badly (lone
# surrogates), or that str.split takes for whitespace
TRICKY_CHARS = [
    "\ud800", "\udbff", "\udc00", "\udfff", "\u0130", "\u212a", "\u017f",
    "\x00", "\x1c", "\x1d", "\x1e", "\x1f", "\x7f", "\x85", "\xa0", "\u2028",
    "\u3000", "\t", "\x0b", "\x0c", "\r", "\n", "?", " ", "_", "\xe9", "\U0001d400",
]
WORD_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(TRICKY_CHARS),
        st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=6),
        st.text(alphabet=st.characters(exclude_categories=()), max_size=4),
        st.sampled_from(["The", "cats", "running", "U.S.", "don't", "3.5", "Flies"]),
    ),
    max_size=30,
).map("".join)


class TestWordFinder:
    @settings(max_examples=500)
    @given(WORD_TEXTS)
    def test_words_match_regex_oracle(self, text):
        assert words(text) == oracle_words(text)

    @given(WORD_TEXTS, st.sampled_from(PIPELINES[1:]))
    def test_pipeline_matches_oracle_pipeline(self, text, pipelines):
        pipeline, oracle = pipelines
        assert pipeline(text) == oracle(text)

    def test_tricky_characters_separate_words(self):
        for c in TRICKY_CHARS:
            assert words(f"ab{c}Cd") == oracle_words(f"ab{c}Cd")

    def test_fixture_matches_oracle_pipeline(self):
        texts = [d.text for r in read_corpus(FIXTURE, "jsonl") for d in r.documents]
        for pipeline, oracle in PIPELINES:
            for text in texts:
                assert pipeline(text) == oracle(text)


class TestStemSeam:
    """``tokenize`` and ``rouge.prepare_text`` reach the stemmer as
    ``porter.stem``, looked up on each call, so a wrapper patched onto the
    module sees every stemmed token."""

    def counting_stem(self, monkeypatch):
        calls = []
        real = porter.stem

        def counting(word):
            calls.append(word)
            return real(word)

        monkeypatch.setattr(porter, "stem", counting)
        return calls

    def test_one_call_per_kept_token(self, monkeypatch):
        calls = self.counting_stem(monkeypatch)
        text = "The cats sat on the mats; the CATS ran, and 42 dogs barked."
        tokens = tokenize(text)
        kept = [w for w in oracle_words(text) if w not in STOPWORDS]
        assert calls == kept
        assert tokens == [stem(w) for w in kept]
        calls.clear()
        assert prepare_text(text) == [stem(w) for w in oracle_words(text)]
        assert calls == oracle_words(text)

    def test_load_corpus_reaches_the_stemmer(self, monkeypatch):
        calls = self.counting_stem(monkeypatch)
        clusters = load_corpus(FIXTURE, "jsonl")
        assert len(calls) == sum(len(s.tokens) for c in clusters for s in c.sentences) > 0


class TestPorter:
    # full-pipeline stems of the original algorithm
    CASES = {
        "caresses": "caress", "flies": "fli", "mules": "mule", "died": "di",
        "agreed": "agre", "owned": "own", "sized": "size", "meeting": "meet",
        "stating": "state", "itemization": "item", "sensational": "sensat",
        "traditional": "tradit", "reference": "refer", "colonizer": "colon",
        "plotted": "plot", "cats": "cat", "ponies": "poni", "happy": "happi",
        "sky": "sky", "hopping": "hop", "falling": "fall", "filing": "file",
        "rational": "ration", "feed": "feed", "bled": "bled", "sing": "sing",
        "relational": "relat", "abilities": "abil", "university": "univers",
        "utilities": "util", "probability": "probabl", "running": "run",
        "news": "new", "was": "wa", "day": "dai", "skies": "ski",
        "generalization": "gener", "effectiveness": "effect",
    }

    def test_vocabulary(self):
        for word, expected in self.CASES.items():
            assert stem(word) == expected, word

    def test_short_and_nonalpha_unchanged(self):
        for word in ("a", "is", "42", "b2b", "Paris", ""):
            assert stem(word) == word

    @given(st.one_of(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=16),
        st.text(max_size=8),
    ))
    def test_cached_stem_matches_uncached(self, word):
        assert stem(word) == stem.__wrapped__(word)
        # the repeat is answered from the cache
        assert stem(word) == stem.__wrapped__(word)

    def test_cached_stem_matches_uncached_on_fixture(self):
        found = set()
        for line in FIXTURE.read_text(encoding="utf-8").split("\n"):
            if not line.strip():
                continue
            record = json.loads(line)
            texts = [d["text"] for d in record["documents"]]
            texts += [r["text"] for r in record.get("references", [])]
            for text in texts:
                found.update(words(text))
        assert len(found) > 100
        for word in sorted(found):
            assert stem(word) == stem.__wrapped__(word), word


class TestLoading:
    def test_jsonl_two_docs_three_sentences(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        text = "Alpha beta gamma. Delta epsilon zeta. Eta theta iota."
        write_jsonl(path, [make_record(texts=(text, text))])
        cluster = load_one(path, "jsonl")
        assert len(cluster.sentences) == 6
        assert [s.doc_id for s in cluster.sentences] == ["d0"] * 3 + ["d1"] * 3
        assert [s.raw_text for s in cluster.sentences] == [
            "Alpha beta gamma.", "Delta epsilon zeta.", "Eta theta iota."
        ] * 2

    def test_duc_dir_without_models(self, tmp_path):
        docs = tmp_path / "cl1" / "docs"
        docs.mkdir(parents=True)
        (docs / "a.txt").write_text("One two three. Four five six.", encoding="utf-8")
        cluster = load_one(tmp_path, "duc-dir")
        assert cluster.cluster_id == "cl1"
        assert cluster.references == ()
        assert len(cluster.sentences) == 2

    def test_duc_dir_with_models(self, tmp_path):
        root = tmp_path / "cl2"
        (root / "docs").mkdir(parents=True)
        (root / "models").mkdir()
        (root / "docs" / "a.txt").write_text("Red fox runs far.", encoding="utf-8")
        (root / "models" / "ref1.txt").write_text("A fox ran.", encoding="utf-8")
        cluster = load_one(tmp_path, "duc-dir")
        assert [r.author_id for r in cluster.references] == ["ref1"]

    def test_whitespace_document_is_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [make_record(texts=("Fine text here.", "   \n "))])
        with pytest.raises(CorpusError, match="empty document"):
            load_one(path, "jsonl")

    def test_zero_sentence_cluster_is_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"cluster_id": "c1", "documents": []}])
        with pytest.raises(CorpusError, match="empty cluster"):
            load_one(path, "jsonl")

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps(make_record()) + "\n{not json}\n", encoding="utf-8"
        )
        with pytest.raises(CorpusError, match=r"corpus\.jsonl:2"):
            load_corpus(path, "jsonl")

    def test_raw_line_separators_inside_strings(self, tmp_path):
        # JSON strings may hold these characters unescaped; only "\n"
        # (or "\r\n") ends a record
        separators = "\u2028\u2029\u0085"
        text = f"Alpha beta{separators}gamma. Delta epsilon zeta."
        records = [
            make_record("c1", texts=(text,), references=(("A", text),)),
            make_record("c2"),
        ]
        for newline in ("\n", "\r\n"):
            path = tmp_path / "corpus.jsonl"
            path.write_text(
                newline.join(json.dumps(r, ensure_ascii=False) for r in records),
                encoding="utf-8", newline="",
            )
            clusters = load_corpus(path, "jsonl")
            assert [c.cluster_id for c in clusters] == ["c1", "c2"]
            assert clusters[0].references[0].text == text
            assert read_corpus(path, "jsonl")[0].documents[0].text == text
            assert clusters[0].sentences[0].raw_text.startswith("Alpha beta")

    def test_missing_field_reports_source(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"cluster_id": "c1"}])
        with pytest.raises(CorpusError, match="malformed record"):
            load_corpus(path, "jsonl")

    def test_invalid_utf8_is_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"cluster_id": "\xff\xfe"}\n')
        with pytest.raises(CorpusError, match="UTF-8"):
            load_corpus(path, "jsonl")

    def test_invalid_utf8_after_byte_order_mark_is_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(BOM + b'{"cluster_id": "\xff\xfe"}\n')
        with pytest.raises(CorpusError, match="UTF-8"):
            load_corpus(path, "jsonl")

    def test_jsonl_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(BOM + FIXTURE.read_bytes())
        assert load_corpus(path, "jsonl") == load_corpus(FIXTURE, "jsonl")

    def test_duc_dir_byte_order_mark_is_dropped(self, tmp_path):
        files = {"docs/a.txt": "Red fox runs far. Blue bird sings.", "models/r1.txt": "A fox ran."}
        for root, prefix in ((tmp_path / "plain", b""), (tmp_path / "bom", BOM)):
            for name, text in files.items():
                (root / "c1" / name).parent.mkdir(parents=True, exist_ok=True)
                (root / "c1" / name).write_bytes(prefix + text.encode())
        [cluster] = load_corpus(tmp_path / "bom", "duc-dir")
        assert cluster == load_one(tmp_path / "plain", "duc-dir")
        assert cluster.sentences[0].raw_text == "Red fox runs far."
        assert cluster.references[0].text == "A fox ran."

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "missing.jsonl", "jsonl")
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "missing-dir", "duc-dir")

    def test_load_corpus_sorted(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [make_record("z9"), make_record("a1")])
        assert [c.cluster_id for c in load_corpus(path, "jsonl")] == ["a1", "z9"]

    def test_shuffled_documents_same_content_multiset(self, tmp_path):
        texts = ["Alpha beta gamma.", "Delta epsilon zeta.", "Eta theta iota."]
        rng = random.Random(3)
        base = None
        for _ in range(5):
            shuffled = texts[:]
            rng.shuffle(shuffled)
            record = {
                "cluster_id": "c1",
                "documents": [
                    {"id": f"d{i}", "text": t} for i, t in enumerate(texts)
                ],
            }
            record["documents"] = [
                {"id": d["id"], "text": t}
                for d, t in zip(record["documents"], shuffled)
            ]
            path = tmp_path / "corpus.jsonl"
            write_jsonl(path, [record])
            cluster = load_one(path, "jsonl")
            multiset = sorted(s.raw_text for s in cluster.sentences)
            if base is None:
                base = multiset
            assert multiset == base


def write_duc_dir(root, clusters):
    """``clusters`` maps a cluster id to its (documents, references) dicts,
    each mapping a file stem to its text."""
    for cluster_id, (documents, references) in clusters.items():
        for folder, files in (("docs", documents), ("models", references)):
            (root / cluster_id / folder).mkdir(parents=True, exist_ok=True)
            for stem, text in files.items():
                (root / cluster_id / folder / f"{stem}.txt").write_text(text, encoding="utf-8")


# each token pipeline the package runs, and whether a built sentence
# keeps its output as the sentence's tokens
BUILD_CONFIGS = ((tokenize, True), (words, False), (prepare_text, False))


def assert_build_keeps_documents(records, built):
    """Each built cluster keeps its record's references, and its
    sentences' doc ids, deduplicated in order, are the record's doc ids:
    every document has a sentence, which tf-idf's document count rests on."""
    for cluster, record in zip(built, records, strict=True):
        assert cluster.references == record.references
        doc_ids = list(dict.fromkeys(s.doc_id for s in cluster.sentences))
        assert doc_ids == [d.doc_id for d in record.documents]


def assert_build_keeps_words(records, built, config):
    """Every sentence of a document is built, in order: the pipeline's
    tokens of the built sentences are those of the document."""
    pipeline, stored = config
    for cluster, record in zip(built, records):
        for document in record.documents:
            sentences = [s for s in cluster.sentences if s.doc_id == document.doc_id]
            assert [t for s in sentences for t in pipeline(s.raw_text)] == pipeline(document.text)
            if stored:
                assert all(s.tokens == tuple(pipeline(s.raw_text)) for s in sentences)


class TestReadThenBuild:
    @pytest.mark.parametrize("config", BUILD_CONFIGS)
    def test_jsonl_fixture(self, config):
        records = read_corpus(FIXTURE, "jsonl")
        built = [build_cluster(r) for r in records]
        assert built == load_corpus(FIXTURE, "jsonl")
        assert_build_keeps_documents(records, built)
        assert_build_keeps_words(records, built, config)

    @pytest.mark.parametrize("config", BUILD_CONFIGS)
    def test_duc_dir(self, tmp_path, config):
        write_duc_dir(tmp_path, {
            "b2": ({"x": "Red fox runs far. Mr. Fox rests.", "a": "Blue bird\n\nsings."},
                   {"r1": "A fox ran."}),
            "a1": ({"d": "One two three. Four five six."}, {}),
        })
        records = read_corpus(tmp_path, "duc-dir")
        assert [r.cluster_id for r in records] == ["a1", "b2"]
        assert [d.doc_id for d in records[1].documents] == ["a", "x"]
        built = [build_cluster(r) for r in records]
        assert built == load_corpus(tmp_path, "duc-dir")
        assert_build_keeps_documents(records, built)
        assert_build_keeps_words(records, built, config)

    def test_record_keeps_raw_text(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        text = "Alpha  beta.\n\nGamma\tdelta."
        write_jsonl(path, [make_record(texts=(text,), references=(("A", "Ref."),))])
        [record] = read_corpus(path, "jsonl")
        assert record.documents[0].text == text
        assert [(r.author_id, r.text) for r in record.references] == [("A", "Ref.")]


class TestReadErrors:
    """``read_corpus`` makes each check of the build, with the same message,
    and reports the first failing record in file order."""

    GOOD = make_record("a0")

    @pytest.mark.parametrize("bad, message", [
        (make_record("c2", texts=("Fine text.", " \t\n")), "{source}: empty document 'd1'"),
        ({"cluster_id": "c2", "documents": [{"id": "d0", "text": "One."},
                                            {"id": "d0", "text": "Two."}]},
         "cluster 'c2': duplicate document ids"),
        ({"cluster_id": "c2", "documents": []}, "empty cluster: 'c2' has no sentences"),
        (make_record("c2", references=(("A", "  "),)),
         "cluster 'c2': reference summary text must be non-empty"),
        ({"cluster_id": "c2", "documents": [{"id": "d0", "text": 5}]},
         "{source}: malformed record (non-string field)"),
        ({"cluster_id": "c2"}, "{source}: malformed record (KeyError('documents'))"),
        ('{"cluster_id": "c2", "documents": [', "{source}: invalid JSON (Expecting value)"),
    ])
    def test_jsonl_first_error_in_file_order(self, tmp_path, bad, message):
        # a later line fails too, and a duplicate cluster id is reported
        # only once every line reads
        path = tmp_path / "corpus.jsonl"
        later = json.dumps(make_record("c3", texts=("",)))
        lines = [json.dumps(self.GOOD), bad if isinstance(bad, str) else json.dumps(bad)]
        path.write_text("\n".join([*lines, later, lines[0]]) + "\n", encoding="utf-8")
        expected = message.format(source=f"{path}:2")
        for load in (read_corpus, load_corpus):
            with pytest.raises(CorpusError) as caught:
                load(path, "jsonl")
            assert str(caught.value) == expected

    def test_jsonl_duplicate_cluster_ids(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [make_record("b"), make_record("a"), make_record("b")])
        for load in (read_corpus, load_corpus):
            with pytest.raises(CorpusError) as caught:
                load(path, "jsonl")
            assert str(caught.value) == f"{path}: duplicate cluster ids ['b']"

    @pytest.mark.parametrize("bad, message", [
        (({"d0": "Fine text.", "d1": " \u00a0\n"}, {}), "{source}: empty document 'd1'"),
        (({"d0": "Fine text."}, {"r1": "\u3000"}),
         "cluster 'c2': reference summary text must be non-empty"),
        (({}, {}), "{source}/docs: no *.txt documents"),
    ])
    def test_duc_dir_first_error_in_directory_order(self, tmp_path, bad, message):
        write_duc_dir(tmp_path, {
            "c1": ({"d0": "Good text here."}, {"r": "Good."}),
            "c2": bad,
            "c3": ({"d0": ""}, {}),
        })
        expected = message.format(source=tmp_path / "c2")
        for load in (read_corpus, load_corpus):
            with pytest.raises(CorpusError) as caught:
                load(tmp_path, "duc-dir")
            assert str(caught.value) == expected


# jsonl lines: mostly well-formed records, some with blank texts, wrong
# types, missing keys or duplicate ids, plus JSON of other shapes and
# arbitrary text; raw line separators appear inside strings
FUZZ_VALUES = st.one_of(
    st.sampled_from(["", " \t", "\u2028"]), st.text(max_size=8), st.none(),
    st.integers(), st.lists(st.integers(), max_size=2),
)


def _mostly(good, bad=FUZZ_VALUES):
    """``good`` fifteen times in sixteen, else ``bad``."""
    return st.integers(0, 15).flatmap(lambda k: bad if k == 0 else good)


def _fields(**fields):
    """Dicts holding every field, or now and then any subset of them."""
    return _mostly(st.fixed_dictionaries(fields), st.fixed_dictionaries({}, optional=fields))


FUZZ_TEXT = _mostly(st.sampled_from([
    "Storm hit the coast. Mr. Lee left.", "Rain fell.\u2028It rained \"hard.\" Then (it) stopped.",
    "a b\n\nc d", "U.S. Gov. J. Smith spoke.",
]))
FUZZ_RECORD = _fields(
    cluster_id=_mostly(st.sampled_from(["a0", "a1", "b"])),
    documents=_mostly(st.lists(
        _mostly(_fields(id=_mostly(st.sampled_from(["d0", "d1", "d2"])), text=FUZZ_TEXT)),
        max_size=3,
    )),
    references=_mostly(st.lists(
        _mostly(_fields(author=_mostly(st.just("A")), text=FUZZ_TEXT)), max_size=2,
    )),
)
FUZZ_LINES = st.lists(
    _mostly(
        st.tuples(FUZZ_RECORD, st.booleans()).map(
            lambda pair: json.dumps(pair[0], ensure_ascii=pair[1])
        ),
        st.one_of(FUZZ_VALUES.map(json.dumps), st.text(max_size=20)),
    ),
    max_size=4,
)


class TestJsonlFuzz:
    @settings(max_examples=300, deadline=None)
    @given(FUZZ_LINES)
    def test_clusters_or_corpus_error(self, lines):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "corpus.jsonl"
            path.write_text("\n".join(lines), encoding="utf-8")
            try:
                records = read_corpus(path, "jsonl")
            except CorpusError as exc:
                with pytest.raises(CorpusError) as caught:
                    load_corpus(path, "jsonl")
                assert str(caught.value) == str(exc)
                return
            clusters = load_corpus(path, "jsonl")
        assert clusters == [build_cluster(r) for r in records]
        assert all(c.sentences for c in clusters)
        assert_build_keeps_documents(records, clusters)


# duc-dir trees: cluster folders, mostly with docs/ and often models/,
# holding files, empty folders named like documents, names the *.txt glob
# skips, blank or non-UTF-8 texts; now and then a file where a folder
# belongs or a folder missing
DUC_TEXT = _mostly(
    _mostly(
        st.sampled_from([
            "Storm hit the coast. Mr. Lee left.", "Rain fell.\u2028It rained.",
            "a b\n\nc d", "U.S. Gov. J. Smith spoke.",
        ]),
        st.one_of(st.sampled_from(["", " \t\n", "\u3000"]), st.text(max_size=8)),
    ).map(str.encode),
    st.binary(max_size=8),
)


def _folder(names, min_size=0):
    """A folder's entries: a name maps to a file's bytes, or to ``{}`` for
    an empty folder."""
    return st.dictionaries(
        st.sampled_from(names), _mostly(DUC_TEXT, st.just({})), min_size=min_size, max_size=3
    )


DUC_CLUSTER = _mostly(
    st.fixed_dictionaries(
        {"docs": _mostly(_folder(["d0.txt", "d1.txt", "D0.txt", "notes.md", ".txt"], 1),
                         st.one_of(st.none(), DUC_TEXT, _folder(["notes.md"])))},
        optional={"models": _mostly(_folder(["A.txt", "B.txt", "a.TXT"]), DUC_TEXT),
                  "readme.txt": DUC_TEXT},
    ),
    DUC_TEXT,
)
DUC_TREE = st.dictionaries(st.sampled_from(["a0", "a1", "b", "notes.txt"]), DUC_CLUSTER, max_size=3)


def write_tree(folder, tree):
    """Write ``tree`` under ``folder``; ``None`` leaves the entry out."""
    for name, value in tree.items():
        if isinstance(value, bytes):
            (folder / name).write_bytes(value)
        elif value is not None:
            (folder / name).mkdir()
            write_tree(folder / name, value)


class TestDucDirFuzz:
    @settings(max_examples=300, deadline=None)
    @given(DUC_TREE)
    def test_clusters_or_corpus_error(self, tree):
        with tempfile.TemporaryDirectory() as folder:
            root = Path(folder)
            write_tree(root, tree)
            try:
                records = read_corpus(root, "duc-dir")
            except CorpusError as exc:
                with pytest.raises(CorpusError) as caught:
                    load_corpus(root, "duc-dir")
                assert str(caught.value) == str(exc)
                return
            clusters = load_corpus(root, "duc-dir")
        assert clusters == [build_cluster(r) for r in records]
        assert all(c.sentences for c in clusters)
        assert_build_keeps_documents(records, clusters)


class TestDuplicateStats:
    def build(self, sentences):
        return word_cluster([sentences])

    def test_all_unique(self):
        cluster = self.build(["Red fox.", "Blue bird.", "Green frog."])
        assert duplicate_stats(cluster) == 0

    def test_two_duplicated_sequences(self):
        # pattern A B A A C B: sequences A and B repeat
        a, b, c = "Red fox runs.", "Blue bird sings.", "Green frog jumps."
        cluster = self.build([a, b, a, a, c, b])
        assert duplicate_stats(cluster) == 2

    def test_punctuation_and_case_insensitive(self):
        cluster = self.build(["Red fox runs!", 'red fox, runs'])
        assert duplicate_stats(cluster) == 1

    def test_permutation_invariant(self):
        rng = random.Random(11)
        sentences = ["Red fox runs.", "Blue bird sings.", "Red fox runs.",
                     "Green frog jumps.", "Blue bird sings.", "Blue bird sings."]
        expected = duplicate_stats(self.build(sentences))
        for _ in range(10):
            shuffled = sentences[:]
            rng.shuffle(shuffled)
            assert duplicate_stats(self.build(shuffled)) == expected

    def test_stopwords_kept_in_sequences(self):
        cluster = self.build(["The fox runs.", "Fox runs."])
        assert duplicate_stats(cluster) == 0

    def test_different_wordless_sentences_are_not_a_repeat(self):
        cluster = self.build(["日本語。 中文。", "Русский текст."])
        assert duplicate_stats(cluster) == 0

    def test_identical_wordless_sentences_repeat(self):
        cluster = self.build(["Русский текст.", "Русский текст."])
        assert duplicate_stats(cluster) == 1


def test_stopword_list_is_fixed_and_lowercase():
    assert len(STOPWORDS) > 100
    assert all(w == w.lower() for w in STOPWORDS)
    assert {"the", "a", "an", "is", "of"} <= STOPWORDS
