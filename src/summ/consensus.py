"""Rank aggregation: Borda, weighted consensus, content-based weighting
and the choose-best oracle baseline.

The weighted consensus optimizer minimizes

    (1 - lambda) * sum_i w_i ||r* - r_i||^2  +  lambda * ||w||^2

over the aggregate rank vector r* and simplex-constrained system weights
w, by alternating two exact coordinate minimizers: r* is the w-weighted
mean of the rank vectors, and w is the Euclidean projection of
-(1 - lambda)/(2 lambda) * d onto the simplex, where d_i = ||r* - r_i||^2.
Rank vectors enter min-max normalized so every coordinate shares the
[0, 1] scale; note the squared distances still grow with the number of
sentences, so larger clusters need a larger lambda for the uniformity
penalty to bite.

The content-based variant replaces distance-derived weights with each
system's mean unigram recall against its peer summaries, treating the
peers as stand-in references.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .record import TupleRecord, _tuple_new
from .rouge import RougeScore, pairwise_sim_matrix, rouge_n_recall
from .rouge import prepare_text  # noqa: F401  (traced here by bench/tracing.py)
from .summarizers import RankList
from .sums import left_sum

AGGREGATORS = ("borda", "wcs", "cwcs", "oracle")


# a wcs restart stops once a step lowers its objective by no more than
# WCS_TOL, or after WCS_MAX_ITER steps
WCS_TOL = 1e-8
WCS_MAX_ITER = 500


def check_lambda(lambda_: float) -> None:
    """Reject a uniformity penalty outside [0, 1), NaN included."""
    # lambda = 1 would drop the distance term and leave r* unconstrained
    if not 0.0 <= lambda_ < 1.0:
        raise ValueError("lambda must lie in [0, 1)")


class WcsResult(TupleRecord):
    """The wcs rank list and what the optimizer reports about it.

    ``iterations`` and ``converged`` describe the winning restart only;
    the other restarts' iterations are not counted anywhere.
    ``converged`` is false when the restart stopped after ``WCS_MAX_ITER``
    steps without a step that lowered its objective by no more than
    ``WCS_TOL``.
    """

    __slots__ = ()
    _fields = ("rank_list", "weights", "iterations", "objective", "converged")

    def __new__(
        cls,
        rank_list: RankList,
        weights: tuple[float, ...],
        iterations: int,
        objective: float,
        converged: bool,
    ):
        return _tuple_new(cls, (rank_list, weights, iterations, objective, converged))


def _common_length(rank_lists: Sequence[RankList]) -> int:
    if not rank_lists:
        raise ValueError("at least one rank list is required")
    n = len(rank_lists[0].scores)
    if any(len(rl.scores) != n for rl in rank_lists):
        raise ValueError("rank lists cover different sentence counts")
    return n


def borda_aggregate(rank_lists: Sequence[RankList]) -> RankList:
    """Order sentences by their mean rank across systems (lower wins)."""
    _common_length(rank_lists)
    k = len(rank_lists)
    mean_ranks = [sum(ranks) / k for ranks in zip(*(rl.ranks for rl in rank_lists))]
    return RankList.from_scores([-m for m in mean_ranks])


def _project_row(y: list[float]) -> list[float]:
    """Euclidean projection of ``y`` onto {w : w >= 0, sum w = 1}.

    Sorted-threshold method: with the entries sorted descending, find the
    largest prefix whose running mean keeps every kept entry above the
    water level tau, then clip at tau.  Plain floats cost less than numpy's
    fixed cost per call on a row of a few weights.  Every operation is
    elementwise or, like ``np.cumsum``, left to right, so the result has
    the bits of the numpy projection in ``tests/wcs_reference.py``
    for any length.
    """
    tau = None
    cumulative = 0.0
    for count, v in enumerate(sorted(y, reverse=True), 1):
        cumulative += v
        threshold = (cumulative - 1.0) / count
        if v > threshold:
            tau = threshold
    # the first entry is always supported, unless the entries are so large
    # that subtracting 1 is lost to rounding
    if tau is None:
        raise ValueError("simplex projection failed: entries too large")
    weights = [v - tau if v - tau > 0.0 else 0.0 for v in y]
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    return weights


def wcs_aggregate(rank_lists: Sequence[RankList], lambda_: float) -> WcsResult:
    """Alternating minimization of the weighted-consensus objective.

    Eliminating r* leaves an indefinite quadratic over the simplex, so a
    single descent can stall in a spurious basin.  The alternation is
    therefore restarted from a fixed set of weight vectors (uniform
    first, then each vertex and each edge midpoint) and the best final
    iterate wins; ties keep the earliest start, so the uniform run is
    preferred whenever it reaches the optimum.

    The restarts run together, one row of a weight matrix each; a row
    leaves the active set once a step lowers its objective by no more than
    ``WCS_TOL``, or after ``WCS_MAX_ITER`` steps, so each restart's steps
    run once.
    """
    check_lambda(lambda_)
    n = _common_length(rank_lists)
    k = len(rank_lists)
    if k < 2:
        raise ValueError("weighted consensus needs at least two rank lists")
    if n > 1:
        rows = [(np.asarray(rl.ranks, dtype=float) - 1.0) / (n - 1) for rl in rank_lists]
    else:
        rows = [np.zeros(1) for _ in rank_lists]
    ranks = np.vstack(rows)

    def consensus(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact r* minimizer of each row, and its distances to the systems.

        The stacked product runs one vector × matrix product per row, the
        same gemv as ``w @ ranks``; ``weights @ ranks``, one matrix
        product over all rows, can round differently in the last bit."""
        r_star = np.matmul(weights[:, None, :], ranks)[:, 0]
        return r_star, ((ranks - r_star[:, None, :]) ** 2).sum(axis=2)

    def objective(weights: np.ndarray, distances: np.ndarray) -> np.ndarray:
        spread = (weights * distances).sum(axis=1)
        return (1.0 - lambda_) * spread + lambda_ * (weights * weights).sum(axis=1)

    def minimize_weights(distances: np.ndarray) -> np.ndarray:
        """Exact w minimizer of each row for fixed r*."""
        if lambda_ == 0.0:
            at_min = distances == distances.min(axis=1, keepdims=True)
            return at_min / at_min.sum(axis=1, keepdims=True)
        scaled = -(1.0 - lambda_) / (2.0 * lambda_) * distances
        return np.array([_project_row(row) for row in scaled.tolist()])

    eye = np.eye(k)
    starts = np.vstack(
        [np.full(k, 1.0 / k), eye]
        + [(eye[i] + eye[j]) / 2.0 for i in range(k) for j in range(i + 1, k)]
    )
    restarts = len(starts)
    # every row is filled in when its restart stops
    weights = np.empty_like(starts)
    iterations = np.full(restarts, WCS_MAX_ITER)
    converged = np.zeros(restarts, dtype=bool)
    running = np.arange(restarts)
    current = starts
    previous = None
    for step in range(WCS_MAX_ITER):
        _, distances = consensus(current)
        current = minimize_weights(distances)
        after = objective(current, distances)
        if previous is not None:
            done = previous - after <= WCS_TOL
            if done.any():
                finished = running[done]
                weights[finished] = current[done]
                iterations[finished] = step + 1
                converged[finished] = True
                running, current, after = running[~done], current[~done], after[~done]
                if not running.size:
                    break
        previous = after
    weights[running] = current
    # leave r* optimal for the final weights
    r_star, distances = consensus(weights)
    final = objective(weights, distances).tolist()
    best = min(range(restarts), key=final.__getitem__)
    return WcsResult(
        rank_list=RankList.from_scores([-v for v in r_star[best]]),
        weights=tuple(weights[best].tolist()),
        iterations=int(iterations[best]),
        objective=final[best],
        converged=bool(converged[best]),
    )


def cwcs_raw_weights(unigrams: Sequence[Counter]) -> list[float]:
    """Mean unigram recall of each summary against its peers, from one
    unigram ``Counter`` per summary."""
    k = len(unigrams)
    if k < 2:
        raise ValueError("peers required: need at least two summaries")
    matrix = pairwise_sim_matrix(unigrams)
    return [
        left_sum(matrix[i][j] for j in range(k) if j != i) / (k - 1) for i in range(k)
    ]


def cwcs_weights(raw: Sequence[float]) -> tuple[float, ...]:
    """Peer-agreement weights (``cwcs_raw_weights``), normalized to the
    simplex.

    All-zero agreement (every summary disjoint from every other) falls
    back to uniform weights.
    """
    total = left_sum(raw)
    if total == 0.0:
        return tuple(1.0 / len(raw) for _ in raw)
    return tuple(r / total for r in raw)


def cwcs_aggregate(rank_lists: Sequence[RankList], weights: Sequence[float]) -> RankList:
    """Weighted sum of normalized rank scores.

    A sentence at rank r in a list of N contributes (N - r)/(N - 1), so
    with uniform weights the ordering coincides with Borda's.  Scores are
    accumulated exactly, so that rank ties survive the combination and
    still break by sentence index: every weight is a dyadic rational
    p / 2^e, so each score is one integer numerator over the common
    denominator D * (N - 1), D the largest 2^e, and ``int / int`` rounds
    it correctly to the nearest float.
    """
    n = _common_length(rank_lists)
    k = len(rank_lists)
    if len(weights) != k:
        raise ValueError("one weight per rank list is required")
    ratios = [w.as_integer_ratio() for w in weights]
    denominator = max(d for _, d in ratios)
    numerators = [p * (denominator // d) for p, d in ratios]
    if n == 1:
        scores = [sum(numerators) / denominator]
    else:
        scores = [
            sum(w * (n - r) for w, r in zip(numerators, ranks)) / (denominator * (n - 1))
            for ranks in zip(*(rl.ranks for rl in rank_lists))
        ]
    return RankList.from_scores(scores)


def oracle_select(
    candidates: Sequence[Counter], references: Sequence[Counter], n: int = 1
) -> tuple[int, RougeScore]:
    """Index and score of the candidate scoring highest against the
    references (ties go to the smaller index); candidates and references
    are given as ``Counter``s of their n-grams of order ``n``."""
    if not references:
        raise ValueError("oracle requires reference summaries")
    if not candidates:
        raise ValueError("at least one candidate summary is required")
    best_index = 0
    best_score = None
    for i, candidate in enumerate(candidates):
        score = rouge_n_recall(candidate, references, n)
        if best_score is None or score.recall > best_score.recall:
            best_index, best_score = i, score
    return best_index, best_score
