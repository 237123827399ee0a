"""The word rule, the token pipelines and the Porter stemmer, stated
plainly.

``oracle_stem`` is the first implementation of the stemmer, kept verbatim
apart from the name and cache of its entry point.  It tries every suffix
of a step with ``str.endswith`` and classifies each letter by recursion on
its left neighbour, so it is slow, and raises ``RecursionError`` on a run
of about 1 000 ``y``s; the words compared with it stay far shorter.
"""

import re

from summ.stopwords import STOPWORDS

# the word rule: each maximal run of ASCII letters and digits, lowercased
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def oracle_words(text: str) -> list[str]:
    """``corpus.words``: the surface words."""
    return [w.lower() for w in _TOKEN_RE.findall(text)]


def oracle_tokens(text: str) -> list[str]:
    """``corpus.tokenize``: the words, stopwords dropped, stemmed."""
    return [oracle_stem(w) for w in oracle_words(text) if w not in STOPWORDS]


def oracle_scoring_tokens(text: str) -> list[str]:
    """``rouge.prepare_text``: the words stemmed, stopwords kept."""
    return [oracle_stem(w) for w in oracle_words(text)]


# -- the stemmer --------------------------------------------------------------

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
STEP2 = (
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("tional", "tion"),
    ("biliti", "ble"), ("entli", "ent"), ("ousli", "ous"), ("ation", "ate"),
    ("alism", "al"), ("aliti", "al"), ("iviti", "ive"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("ator", "ate"), ("eli", "e"),
)

STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

STEP4 = (
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
    for suffix in STEP4:
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
    word = _apply_rules(word, STEP2)
    word = _apply_rules(word, STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
