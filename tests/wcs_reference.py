"""Weighted consensus one restart at a time: the original per-restart loop
of ``wcs_aggregate``, with its 1-D simplex projection.

The tests check with exact ``==`` that the package's batched restarts give
this loop's result, and read each restart's objective trace from here,
since the package keeps none.
"""

from typing import Sequence

import numpy as np

from summ.consensus import WcsResult, _common_length
from summ.summarizers import RankList


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
            weights = np.asarray(
                reference_project_simplex(-(1.0 - lam) / (2.0 * lam) * distances)
            )
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
    n = _common_length(rank_lists)
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
