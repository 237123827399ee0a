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


def _by_ending(rules) -> dict[str, tuple[tuple[str, str, str], ...]]:
    """``(suffix, replacement, replacement's map)`` keyed by the suffix's
    last two letters, longest suffix first.

    No replacement holds a ``y``, so the classes of its letters do not
    depend on the stem they are appended to.
    """
    buckets: dict[str, list[tuple[str, str, str]]] = {}
    for suffix, repl in sorted(rules, key=lambda rule: -len(rule[0])):
        assert "y" not in repl
        buckets.setdefault(suffix[-2:], []).append((suffix, repl, _consonant_map(repl)))
    return {ending: tuple(bucket) for ending, bucket in buckets.items()}


# (suffix, replacement) pairs; within a step the longest matching suffix
# decides the rule, and if its m-condition fails no shorter suffix is tried.
_STEP2 = _by_ending((
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("tional", "tion"),
    ("biliti", "ble"), ("entli", "ent"), ("ousli", "ous"), ("ation", "ate"),
    ("alism", "al"), ("aliti", "al"), ("iviti", "ive"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("ator", "ate"), ("eli", "e"),
))

_STEP3 = _by_ending((
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
))

_STEP4 = _by_ending((suffix, "") for suffix in (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ion",
    "ism", "ate", "iti", "ous", "ive", "ize", "al", "er", "ic", "ou",
))

_APPENDED = {"e", "i"} | {  # step 1b's e, step 1c's i, steps 2 and 3
    repl for step in (_STEP2, _STEP3) for bucket in step.values() for _, repl, _ in bucket
}

#: Every prefix of a string the stemmer appends, "" included.
#:
#: Invariant: ``stem(w) == w[:p] + s`` with ``p >= 1`` and ``s`` in TAILS.
#: So every word that stems to ``t`` starts with ``t[:p]`` for some
#: ``p >= 1`` with ``t[p:]`` in TAILS, and so with the shortest such
#: ``t[:p]``, its core.
#:
#: Proof, step by step, on the word so far ``w[:p] + s``.  It starts as
#: ``w``, ``s = ""``.  A step that only drops final letters (1a, -eed,
#: -ed/-ing, undoubling, 5a, 5b) leaves a prefix of ``s``, or ``s = ""``
#: and a shorter ``w[:p]``; each leaves at least one letter.  Step 1b's
#: ``e`` follows a drop with nothing appended yet, so ``s`` becomes "e".
#: Step 1c's final ``y`` lies in ``w[:p]``, since no tail holds a ``y``,
#: so ``s = ""``; with a vowel before it, ``w[:p-1] + "i"``.  A rule of
#: steps 2-4 swaps suffix ``u`` for ``r`` after a stem of measure >= 1.
#: If ``u`` covers ``s``, the word becomes that stem, a non-empty
#: ``w[:p']``, plus ``r``.  Otherwise ``u`` is a proper suffix of ``s``
#: (step 4's -ion after step 2's -tion), so ``r`` is "" by the assert
#: below and the word keeps ``w[:p]`` plus a prefix of ``s``.
TAILS = frozenset(r[:k] for r in _APPENDED for k in range(len(r) + 1))

assert not any(  # no rule that appends matches a suffix starting inside a tail
    repl and tail != suffix and tail.endswith(suffix)
    for step in (_STEP2, _STEP3, _STEP4)
    for bucket in step.values()
    for suffix, repl, _ in bucket
    for tail in TAILS
)


def _replace_suffix(rules, min_measure: int, word: str, cv: str) -> tuple[str, str]:
    """Steps 2-4: the word and its map after the longest matching rule."""
    for suffix, repl, repl_cv in rules.get(word[-2:], ()):
        if word.endswith(suffix):
            end = len(word) - len(suffix)
            if cv.count("vc", 0, end) < min_measure:
                return word, cv
            # step 4 strips -ion only after s or t
            if suffix == "ion" and word[end - 1] not in "st":
                return word, cv
            return word[:end] + repl, cv[:end] + repl_cv
    return word, cv


@functools.cache
def stem(word: str) -> str:
    """Return the Porter stem of ``word``.

    Words shorter than three letters and words containing anything but
    lowercase ASCII letters are returned unchanged.  Results are cached
    for the life of the process; the cache holds one entry per distinct
    word, so it is bounded by the vocabulary seen.

    The measure of a stem ending at ``end`` is ``cv.count("vc", 0, end)``,
    its number of vowel-to-consonant transitions ([C](VC){m}[V]).
    """
    if len(word) <= 2 or not word.isascii() or not word.isalpha() or not word.islower():
        return word
    # step 1a: plurals
    if word[-1] == "s":
        if word.endswith(("sses", "ies")):
            word = word[:-2]
        elif word[-2] != "s":
            word = word[:-1]
    cv = _consonant_map(word)
    # step 1b: -eed, -ed, -ing
    if word.endswith("eed"):
        if cv.count("vc", 0, len(word) - 3):
            word, cv = word[:-1], cv[:-1]
    elif word.endswith(("ed", "ing")):
        end = len(word) - (2 if word[-1] == "d" else 3)
        if "v" in cv[:end]:
            word, cv = word[:end], cv[:end]
            if word.endswith(("at", "bl", "iz")):
                word, cv = word + "e", cv + "v"
            elif end >= 2 and word[-1] == word[-2] and cv[-1] == "c":
                if word[-1] not in "lsz":
                    word, cv = word[:-1], cv[:-1]
            elif cv.count("vc") == 1 and cv.endswith("cvc") and word[-1] not in "wxy":
                word, cv = word + "e", cv + "v"
    # step 1c: a final y becomes i when a vowel precedes it anywhere
    if word[-1] == "y" and "v" in cv[:-1]:
        word, cv = word[:-1] + "i", cv[:-1] + "v"
    word, cv = _replace_suffix(_STEP2, 1, word, cv)
    word, cv = _replace_suffix(_STEP3, 1, word, cv)
    word, cv = _replace_suffix(_STEP4, 2, word, cv)
    # step 5a: a final e goes after a long stem, or a short one not ending cvc
    if word[-1] == "e":
        end = len(word) - 1
        m = cv.count("vc", 0, end)
        if m > 1 or (m == 1 and not (cv.endswith("cvc", 0, end) and word[end - 1] not in "wxy")):
            word, cv = word[:end], cv[:end]
    # step 5b: -ll loses an l after a long stem
    if word.endswith("ll") and cv.count("vc") > 1:
        word = word[:-1]
    return word
