"""Porter suffix-stripping stemmer.

Implements the original 1980 algorithm (steps 1a through 5b) without the
later revisions some libraries add, so stems are stable and easy to check
by hand.  Only lowercase alphabetic words are transformed; anything else
(numbers, mixed case, very short words) is returned unchanged.

Each form of the word gets one consonant map: a string with ``c`` for a
consonant and ``v`` for a vowel at each position.  A letter's class
depends only on the letters before it, so the map of a prefix is the
prefix of the map, and the measure, vowel and cvc tests on a stem are
slices of it.  Steps 2-4 pick their candidate suffixes by the word's last
two letters, as Porter's reference implementation dispatches on a letter
instead of trying every suffix.
"""

from __future__ import annotations

import functools
import string

# "y" stays "y" here; _consonant_map resolves it by its left neighbour
_CV_CLASSES = str.maketrans(
    {c: "v" if c in "aeiou" else "c" for c in string.ascii_lowercase if c != "y"}
)


def _consonant_map(word: str) -> str:
    """``c``/``v`` per letter; ``y`` is a consonant first or after a vowel."""
    cv = word.translate(_CV_CLASSES)
    if "y" not in cv:
        return cv
    classes = []
    prev = "v"
    for c in cv:
        if c == "y":
            c = "c" if prev == "v" else "v"
        classes.append(c)
        prev = c
    return "".join(classes)


def _measure(cv: str, end: int) -> int:
    """Number of vowel-to-consonant transitions ([C](VC){m}[V]) in ``cv[:end]``."""
    return cv.count("vc", 0, end)


def _ends_double_consonant(word: str, cv: str, end: int) -> bool:
    return end >= 2 and word[end - 1] == word[end - 2] and cv[end - 1] == "c"


def _ends_cvc(word: str, cv: str, end: int) -> bool:
    return end >= 3 and cv[end - 3 : end] == "cvc" and word[end - 1] not in "wxy"


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


def _by_ending(rules) -> dict[str, tuple[tuple[str, str], ...]]:
    """Rules keyed by their last two letters, longest suffix first."""
    buckets: dict[str, list[tuple[str, str]]] = {}
    for rule in sorted(rules, key=lambda rule: -len(rule[0])):
        buckets.setdefault(rule[0][-2:], []).append(rule)
    return {ending: tuple(bucket) for ending, bucket in buckets.items()}


def _step1a(word: str) -> str:
    if not word.endswith("s"):
        return word
    if word.endswith(("sses", "ies")):
        return word[:-2]
    return word if word.endswith("ss") else word[:-1]


def _step1b(word: str, cv: str) -> str:
    if not word.endswith(("ed", "ing")):
        return word
    if word.endswith("eed"):
        return word[:-1] if _measure(cv, len(word) - 3) > 0 else word
    if word.endswith("ed") and "v" in cv[:-2]:
        end = len(word) - 2
    elif word.endswith("ing") and "v" in cv[:-3]:
        end = len(word) - 3
    else:
        return word
    # cleanup after a stripped -ed / -ing; cv[:end] maps the stripped word
    word = word[:end]
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word, cv, end) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(cv, end) == 1 and _ends_cvc(word, cv, end):
        return word + "e"
    return word


def _step1c(word: str, cv: str) -> str:
    if word.endswith("y") and "v" in cv[:-1]:
        return word[:-1] + "i"
    return word


def _replace_suffix(rules, min_measure: int, word: str, cv: str) -> str:
    for suffix, repl in rules.get(word[-2:], ()):
        if word.endswith(suffix):
            end = len(word) - len(suffix)
            if _measure(cv, end) < min_measure:
                return word
            # step 4 strips -ion only after s or t
            if suffix == "ion" and word[end - 1] not in "st":
                return word
            return word[:end] + repl
    return word


def _step5a(word: str, cv: str) -> str:
    if word.endswith("e"):
        end = len(word) - 1
        m = _measure(cv, end)
        if m > 1 or (m == 1 and not _ends_cvc(word, cv, end)):
            return word[:end]
    return word


def _step5b(word: str, cv: str) -> str:
    if word.endswith("ll") and _measure(cv, len(word)) > 1:
        return word[:-1]
    return word


_STEPS = (
    _step1b,
    _step1c,
    functools.partial(_replace_suffix, _by_ending(_STEP2), 1),
    functools.partial(_replace_suffix, _by_ending(_STEP3), 1),
    functools.partial(_replace_suffix, _by_ending((s, "") for s in _STEP4), 2),
    _step5a,
    _step5b,
)


@functools.cache
def stem(word: str) -> str:
    """Return the Porter stem of ``word``.

    Words shorter than three letters and words containing anything but
    lowercase ASCII letters are returned unchanged.  Results are cached
    for the life of the process; the cache holds one entry per distinct
    word, so it is bounded by the vocabulary seen.
    """
    if len(word) <= 2 or not word.isascii() or not word.isalpha() or not word.islower():
        return word
    word = _step1a(word)
    cv = _consonant_map(word)
    for step in _STEPS:
        stepped = step(word, cv)
        if stepped is not word:  # a step that keeps the word returns it as is
            word, cv = stepped, _consonant_map(stepped)
    return word
