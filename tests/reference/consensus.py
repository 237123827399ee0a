"""The aggregators one plain step at a time: cwcs in exact rationals, its
peer weights and the oracle's pick from token-list recalls, and wcs as the
original per-restart loop, whose objective traces the package does not
keep.  Grid searches over the simplex bound the projection and the wcs
objective from outside."""

import functools
import itertools
import random
from fractions import Fraction
from typing import Sequence

import numpy as np

from summ.consensus import WcsResult
from summ.corpus import ReferenceSummary
from summ.rouge import RougeScore, TokenLists, prepare_text
from summ.summarizers import RankList
from summ.sums import left_sum

from reference.rouge import reference_pairwise_sim_matrix, reference_rouge_n_recall


def common_length(rank_lists: Sequence[RankList]) -> int:
    """The sentence count every rank list covers."""
    lengths = {len(rl.ranks) for rl in rank_lists}
    if len(lengths) != 1:
        raise ValueError("rank lists must be given and cover one sentence count")
    return lengths.pop()


# -- cwcs and the oracle ---------------------------------------------------------


def reference_cwcs_aggregate(
    rank_lists: Sequence[RankList], weights: Sequence[float]
) -> RankList:
    """Weighted sum of normalized rank scores, each sentence's summed as a
    ``Fraction`` and rounded to a float once."""
    n = common_length(rank_lists)
    if len(weights) != len(rank_lists):
        raise ValueError("one weight per rank list is required")
    exact_weights = [Fraction(w) for w in weights]
    scores = []
    for i in range(n):
        if n == 1:
            score = Fraction(sum(exact_weights))
        else:
            score = sum(
                (w * Fraction(n - rl.ranks[i], n - 1)
                 for w, rl in zip(exact_weights, rank_lists)),
                start=Fraction(0),
            )
        scores.append(float(score))
    return RankList.from_scores(scores)


def reference_cwcs_raw_weights(summaries: Sequence[TokenLists]) -> list[float]:
    """Mean unigram recall of each summary against its peers."""
    k = len(summaries)
    if k < 2:
        raise ValueError("peers required: need at least two summaries")
    matrix = reference_pairwise_sim_matrix(summaries)
    return [
        left_sum(matrix[i][j] for j in range(k) if j != i) / (k - 1) for i in range(k)
    ]


def reference_cwcs_weights(summaries: Sequence[TokenLists]) -> tuple[float, ...]:
    """Peer-agreement weights, normalized to the simplex."""
    raw = reference_cwcs_raw_weights(summaries)
    total = left_sum(raw)
    if total == 0.0:
        return tuple(1.0 / len(raw) for _ in raw)
    return tuple(r / total for r in raw)


def reference_oracle_select(
    candidate_summaries: Sequence[TokenLists],
    references: Sequence[ReferenceSummary],
    n: int = 1,
) -> tuple[int, RougeScore]:
    """Index and score of the candidate scoring highest against the
    references (ties go to the smaller index)."""
    if not references:
        raise ValueError("oracle requires reference summaries")
    if not candidate_summaries:
        raise ValueError("at least one candidate summary is required")
    reference_streams = [prepare_text(r.text) for r in references]
    best_index = 0
    best_score = None
    for i, candidate in enumerate(candidate_summaries):
        score = reference_rouge_n_recall(candidate, reference_streams, n)
        if best_score is None or score.recall > best_score.recall:
            best_index, best_score = i, score
    return best_index, best_score


# -- wcs -------------------------------------------------------------------------


def reference_project_simplex(y: Sequence[float]) -> tuple[float, ...]:
    """Euclidean projection onto {w : w >= 0, sum w = 1}.

    Sorted-threshold method: with the entries sorted descending, find the
    largest prefix whose running mean keeps every kept entry above the
    water level tau, then clip at tau.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("expected a non-empty 1-D vector")
    u = np.sort(y)[::-1]
    cumulative = np.cumsum(u)
    j = np.arange(1, y.size + 1)
    supported = np.nonzero(u - (cumulative - 1.0) / j > 0.0)[0]
    rho = supported[-1]
    tau = (cumulative[rho] - 1.0) / (rho + 1.0)
    return tuple(np.maximum(y - tau, 0.0).tolist())


def reference_weight_step(distances: np.ndarray, lam: float) -> np.ndarray:
    """The exact w minimizer for fixed r*: the projection of
    -(1 - lam) / (2 lam) * distances.  Where no entry is supported, or the
    weights' sum is off 1 by more than 1e-9 (a tiny lam scales the
    distances to 1e8 and more), the distances less their least are
    projected instead, whose largest scaled entry is 0."""
    scale = -(1.0 - lam) / (2.0 * lam)
    try:
        weights = reference_project_simplex(scale * distances)
    except IndexError:
        weights = None
    if weights is None or abs(sum(weights) - 1.0) > 1e-9:
        weights = reference_project_simplex(scale * (distances - distances.min()))
    return np.asarray(weights)


def reference_alternate_minimize(
    ranks: np.ndarray, start: np.ndarray, lam: float, tol: float, max_iter: int
):
    """One alternating-minimization run from the given weight start.

    The trace holds the objective before and after each step's weight
    update, then the final objective, so it has 2 * iterations + 1 entries.
    """

    def objective(w: np.ndarray, distances: np.ndarray) -> float:
        return float((1.0 - lam) * (w * distances).sum() + lam * (w * w).sum())

    weights = start
    trace: list[float] = []
    converged = False
    iterations = 0
    previous = None
    for _ in range(max_iter):
        iterations += 1
        # exact r* minimizer for fixed w
        r_star = weights @ ranks
        distances = ((ranks - r_star) ** 2).sum(axis=1)
        trace.append(objective(weights, distances))
        # exact w minimizer for fixed r*
        if lam == 0.0:
            at_min = distances == distances.min()
            weights = at_min / at_min.sum()
        else:
            weights = reference_weight_step(distances, lam)
        current = objective(weights, distances)
        trace.append(current)
        if previous is not None and previous - current <= tol:
            converged = True
            break
        previous = current
    # leave r* optimal for the final weights
    r_star = weights @ ranks
    distances = ((ranks - r_star) ** 2).sum(axis=1)
    final = objective(weights, distances)
    trace.append(final)
    return final, weights, r_star, iterations, converged, trace


def reference_wcs_aggregate(
    rank_lists: Sequence[RankList], lam: float, tol: float, max_iter: int
) -> tuple[WcsResult, list[tuple[float, ...]]]:
    """Alternating minimization of the weighted-consensus objective,
    restarted from uniform, each vertex and each edge midpoint.

    Returns the best restart's result and every restart's objective
    trace, in start order."""
    n = common_length(rank_lists)
    k = len(rank_lists)
    if k < 2:
        raise ValueError("weighted consensus needs at least two rank lists")
    if n > 1:
        rows = [(np.asarray(rl.ranks, dtype=float) - 1.0) / (n - 1) for rl in rank_lists]
    else:
        rows = [np.zeros(1) for _ in rank_lists]
    ranks = np.vstack(rows)

    starts = [np.full(k, 1.0 / k)]
    starts.extend(np.eye(k)[i] for i in range(k))
    starts.extend(
        (np.eye(k)[i] + np.eye(k)[j]) / 2.0 for i in range(k) for j in range(i + 1, k)
    )
    best = None
    traces = []
    for start in starts:
        run = reference_alternate_minimize(ranks, start, lam, tol, max_iter)
        traces.append(tuple(run[5]))
        if best is None or run[0] < best[0]:
            best = run
    final, weights, r_star, iterations, converged, _ = best
    result = WcsResult(
        rank_list=RankList.from_scores([-v for v in r_star]),
        weights=tuple(weights.tolist()),
        iterations=iterations,
        objective=final,
        converged=converged,
    )
    return result, traces


def non_increasing(trace: Sequence[float], slack: float = 1e-12) -> bool:
    """Whether no entry of ``trace`` exceeds the one before by more than
    ``slack``."""
    return all(after <= before + slack for before, after in zip(trace, trace[1:]))


# -- grid searches over the simplex ------------------------------------------------


@functools.lru_cache(maxsize=None)
def simplex_grid(k: int, ticks: int) -> np.ndarray:
    """Every point of the k-dimensional simplex whose coordinates are
    multiples of 1 / ``ticks``, one a row, in lexicographic order."""
    # stars and bars: a point's coordinates are the gaps between k - 1 bars
    # placed among ticks + k - 1 slots
    bars = np.array(list(itertools.combinations(range(ticks + k - 1), k - 1)), dtype=float)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, ticks + k - 1)))
    return (np.diff(edges, axis=1) - 1.0) / ticks


def nearest_simplex_point(y: Sequence[float], step: float = 1e-3) -> np.ndarray:
    """The point of the simplex grid of spacing ``step`` nearest ``y``."""
    y = np.asarray(y, dtype=float)
    grid = simplex_grid(y.size, round(1.0 / step))
    return grid[((grid - y) ** 2).sum(axis=1).argmin()]


def wcs_grid_minimum(
    rank_rows: np.ndarray, lam: float, rng: random.Random, step: float = 0.01
) -> float:
    """Minimum of the consensus objective over the product grid of w on
    the simplex and r* in [0, 1]^n, both of spacing ``step``.

    Enumerates every simplex grid point for w.  For fixed w the objective
    separates per coordinate of r*, and each coordinate term is a convex
    parabola in the grid variable, so its grid minimum sits at a grid
    point nearest the vertex; a random sample of cells, drawn from
    ``rng``, is re-checked by full enumeration over all grid values.
    """
    ticks = round(1.0 / step)
    grid_w = simplex_grid(rank_rows.shape[0], ticks)
    totals = grid_w.sum(axis=1)
    m = grid_w @ rank_rows
    s = grid_w @ (rank_rows**2)
    g = np.clip(np.round(m / step) * step, 0.0, 1.0)
    best = g * g * totals[:, None] - 2.0 * g * m + s
    # spot-check the closed-form inner minimum against brute enumeration
    g_values = np.arange(ticks + 1) * step
    for _ in range(20):
        p = rng.randrange(grid_w.shape[0])
        n = rng.randrange(rank_rows.shape[1])
        enumerated = (
            g_values**2 * totals[p] - 2.0 * g_values * m[p, n] + s[p, n]
        ).min()
        assert abs(enumerated - best[p, n]) <= 1e-12
    objective = (1.0 - lam) * best.sum(axis=1) + lam * (grid_w**2).sum(axis=1)
    return float(objective.min())
