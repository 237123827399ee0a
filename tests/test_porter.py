"""Differential test of ``summ.porter.stem`` against a plain reference,
and a property test of the invariant ``summ.porter.TAILS`` states.

The reference below is the first implementation of the stemmer, kept
verbatim apart from the name and cache of its entry point.  It tries
every suffix of a step with ``str.endswith`` and classifies each letter
by recursion on its left neighbour, so it is slow, and raises
``RecursionError`` on a run of about 1 000 ``y``s; the words compared
here stay far shorter.
"""

import itertools
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from summ.corpus import RAW_SEQUENCE_CONFIG, tokenize
from summ.porter import TAILS, stem

FIXTURE = Path(__file__).parent / "data" / "fixture.jsonl"

# -- reference implementation -------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions ([C](VC){m}[V])."""
    m = 0
    prev_cons = None
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if prev_cons is False and cons:
            m += 1
        prev_cons = cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


# (suffix, replacement) pairs; within a step the longest matching suffix
# decides the rule, and if its m-condition fails no shorter suffix is tried.
_STEP2 = (
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("tional", "tion"),
    ("biliti", "ble"), ("entli", "ent"), ("ousli", "ous"), ("ation", "ate"),
    ("alism", "al"), ("aliti", "al"), ("iviti", "ive"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("ator", "ate"), ("eli", "e"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ion",
    "ism", "ate", "iti", "ous", "ive", "ize", "al", "er", "ic", "ou",
)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return word[:-1] if _measure(stem) > 0 else word
    if word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    # cleanup after a stripped -ed / -ing
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _apply_rules(word: str, rules) -> str:
    longest = None
    for suffix, repl in rules:
        if word.endswith(suffix):
            if longest is None or len(suffix) > len(longest[0]):
                longest = (suffix, repl)
    if longest is None:
        return word
    suffix, repl = longest
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > 0:
        return stem + repl
    return word


def _step4(word: str) -> str:
    longest = None
    for suffix in _STEP4:
        if word.endswith(suffix):
            if longest is None or len(suffix) > len(longest):
                longest = suffix
    if longest is None:
        return word
    stem = word[: len(word) - len(longest)]
    if _measure(stem) <= 1:
        return word
    if longest == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


def oracle_stem(word: str) -> str:
    """Return the Porter stem of ``word``.

    Words shorter than three letters and words containing anything but
    lowercase ASCII letters are returned unchanged.
    """
    if len(word) <= 2 or not word.isascii() or not word.isalpha() or not word.islower():
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2)
    word = _apply_rules(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


# -- comparison ---------------------------------------------------------------

# vowels and y weighted up, so measures, y classes and cvc endings vary
LETTERS = list("aeiouy" * 3 + "bcdfghjklmnpqrstvwxz")
# syllable onsets and codas: consonants the rules single out (double l/s/z,
# -ion after s/t, no cvc ending in w/x/y) next to a few plain ones
MARGINS = ["", "b", "d", "l", "r", "s", "t", "w", "x", "y", "z", "st", "ll", "zz"]
SUFFIXES = sorted(
    {s for s, _ in _STEP2} | {s for s, _ in _STEP3} | set(_STEP4)
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
    words = set()
    for line in FIXTURE.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        texts = [d["text"] for d in record["documents"]]
        texts += [r["text"] for r in record.get("references", [])]
        for text in texts:
            words.update(tokenize(text, RAW_SEQUENCE_CONFIG))
    assert len(words) > 350
    for word in words:
        assert stem.__wrapped__(word) == oracle_stem(word), word


def test_long_y_run():
    # alternating consonant/vowel y's; step 1c turns the final y into i
    assert stem.__wrapped__("y" * 1500) == "y" * 1499 + "i"
