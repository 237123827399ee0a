"""The scalar log-likelihood ratio of topic signatures, one token at a time.

``summarizers.topic_words`` tests a cluster's whole vocabulary in one
numpy pass; the tests check with exact ``==`` that it picks the tokens
this rule picks.
"""

import math


def _binomial_ll(k: float, n: float, p: float) -> float:
    """log L(p; k, n) with the 0*log(0) := 0 convention."""
    ll = 0.0
    if k > 0:
        ll += k * math.log(p)
    if n - k > 0:
        ll += (n - k) * math.log(1.0 - p)
    return ll


def log_likelihood_ratio(k1: int, n1: int, k2: int, n2: int) -> float:
    """Dunning's signed-use likelihood-ratio statistic for one token.

    Compares the token's rate in the foreground (k1 of n1) against the
    background (k2 of n2); large values mean the rates genuinely differ.
    """
    p1 = k1 / n1
    p2 = k2 / n2
    p = (k1 + k2) / (n1 + n2)
    return 2.0 * (
        _binomial_ll(k1, n1, p1)
        + _binomial_ll(k2, n2, p2)
        - _binomial_ll(k1, n1, p)
        - _binomial_ll(k2, n2, p)
    )
