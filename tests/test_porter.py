"""Differential test of ``summ.porter.stem`` against the plain reference
``reference.text.oracle_stem``, and a property test of the invariant
``summ.porter.TAILS`` states."""

import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summ.porter import TAILS, stem

from reference.fixture import FIXTURE, record_words
from reference.text import STEP2, STEP3, STEP4, oracle_stem

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from corpus_gen import corpus_lines  # noqa: E402
from run import WORKLOADS  # noqa: E402

# vowels and y weighted up, so measures, y classes and cvc endings vary
LETTERS = list("aeiouy" * 3 + "bcdfghjklmnpqrstvwxz")
# syllable onsets and codas: consonants the rules single out (double l/s/z,
# -ion after s/t, no cvc ending in w/x/y) next to a few plain ones
MARGINS = ["", "b", "d", "l", "r", "s", "t", "w", "x", "y", "z", "st", "ll", "zz"]
SUFFIXES = sorted(
    {s for s, _ in STEP2} | {s for s, _ in STEP3} | set(STEP4)
    | {"s", "es", "sses", "ies", "ss", "ed", "eed", "ing", "y", "e", "ll"}
)

letter_words = st.text(alphabet=st.sampled_from(LETTERS), max_size=24)
syllables = st.tuples(
    st.sampled_from(MARGINS), st.sampled_from(list("aeiouy")), st.sampled_from(MARGINS)
).map("".join)
bases = st.one_of(
    st.text(alphabet=st.sampled_from(LETTERS), max_size=10),
    st.lists(syllables, min_size=1, max_size=3).map("".join),
)
suffixed_words = st.builds(
    lambda base, suffixes: base + "".join(suffixes),
    bases,
    st.lists(st.sampled_from(SUFFIXES), min_size=1, max_size=2),
)


def short_base_words():
    """Every base of up to three letters, bare and with each suffix."""
    for n in (1, 2, 3):
        for chars in itertools.product("aeiyblstwxz", repeat=n):
            base = "".join(chars)
            for suffix in ("", *SUFFIXES):
                yield base + suffix


@settings(max_examples=500, deadline=None)
@given(st.one_of(letter_words, suffixed_words))
def test_matches_oracle_on_generated_words(word):
    assert stem.__wrapped__(word) == oracle_stem(word)


def test_matches_oracle_on_short_bases():
    for word in short_base_words():
        assert stem.__wrapped__(word) == oracle_stem(word), word


def is_core_plus_tail(word: str) -> bool:
    """``stem(word) == word[:p] + s`` for some ``p >= 1`` and tail ``s``."""
    stemmed = stem.__wrapped__(word)
    return any(
        stemmed[:p] == word[:p] and stemmed[p:] in TAILS
        for p in range(1, min(len(word), len(stemmed)) + 1)
    )


@settings(max_examples=1000, deadline=None)
@given(st.one_of(letter_words, suffixed_words).filter(bool))
def test_stem_is_a_core_plus_a_tail_on_generated_words(word):
    assert is_core_plus_tail(word), (word, stem.__wrapped__(word))


def test_stem_is_a_core_plus_a_tail_on_short_bases():
    for word in short_base_words():
        assert is_core_plus_tail(word), (word, stem.__wrapped__(word))


def test_tails_hold_every_appended_string():
    # step 1c's i (happy -> happi), 1b's e (hoping -> hope), step 2's
    # replacement cut by step 5a (relational -> relate -> relat) and by
    # step 4 (conditional -> condition -> condit)
    for word, stemmed in (("happy", "happi"), ("hoping", "hope"),
                          ("relational", "relat"), ("conditional", "condit")):
        assert stem.__wrapped__(word) == stemmed
        assert is_core_plus_tail(word), word


def test_matches_oracle_on_fixture_tokens():
    words = record_words(Path(FIXTURE).read_text(encoding="utf-8").splitlines())
    assert len(words) > 350
    for word in words:
        assert stem.__wrapped__(word) == oracle_stem(word), word


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_matches_oracle_on_benchmark_words(workload):
    # every surface word of the benchmark's seed-0 corpus of each shape:
    # the vocabulary its set-up time stems cold
    words = record_words(corpus_lines(0, WORKLOADS[workload].shape))
    assert len(words) > 2000
    for word in words:
        assert stem.__wrapped__(word) == oracle_stem(word), word


def test_long_y_run():
    # alternating consonant/vowel y's; step 1c turns the final y into i
    assert stem.__wrapped__("y" * 1500) == "y" * 1499 + "i"
