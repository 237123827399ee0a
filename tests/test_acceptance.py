"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to see the
lines as they happen).  Criteria 8-10 need the licensed DUC corpora
converted to the duc-dir layout; point SUMM_DUC2003_DIR / SUMM_DUC2004_DIR
at the corpus roots to enable them, otherwise they are skipped.
"""

import functools
import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from summ.consensus import (
    WCS_MAX_ITER,
    WCS_TOL,
    _project_row,
    borda_aggregate,
    cwcs_aggregate,
    cwcs_raw_weights,
    cwcs_weights,
    wcs_aggregate,
)
from summ.harness import RunConfig, emit_report, run_evaluation
from summ.rouge import rouge_n_recall
from summ.summarizers import (
    ClusterFeatures,
    LengthBudget,
    RankList,
    greedykl_rank,
)

from ngram_counting import ngram_counts
from wcs_reference import non_increasing, reference_wcs_aggregate
from word_clusters import word_cluster

FIXTURE = Path(__file__).parent / "data" / "fixture.jsonl"


def report_line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_permutation_lists(rng, k, n):
    lists = []
    for _ in range(k):
        ranks = list(range(1, n + 1))
        rng.shuffle(ranks)
        lists.append(RankList.from_scores([n - r for r in ranks]))
    return lists


# --- criterion 1 -----------------------------------------------------------

def brute_force_clipped(candidate_sentences, reference, n):
    cand = {}
    for sentence in candidate_sentences:
        for i in range(len(sentence) - n + 1):
            gram = tuple(sentence[i : i + n])
            cand[gram] = cand.get(gram, 0) + 1
    ref = {}
    for i in range(len(reference) - n + 1):
        gram = tuple(reference[i : i + n])
        ref[gram] = ref.get(gram, 0) + 1
    return sum(min(c, cand.get(g, 0)) for g, c in ref.items())


def test_criterion_1_rouge_oracle_equivalence():
    rng = random.Random(2024)
    vocab = [f"w{i}" for i in range(10)]
    checked = 0
    for _ in range(1000):
        sentences = [
            rng.choices(vocab, k=rng.randint(0, 12))
            for _ in range(rng.randint(1, 3))
        ]
        reference = rng.choices(vocab, k=rng.randint(4, 30))
        for n in (1, 2, 4):
            expected = brute_force_clipped(sentences, reference, n)
            got = rouge_n_recall(
                ngram_counts(sentences, n), [ngram_counts([reference], n)], n
            ).match_count
            if got != expected:
                report_line("criterion 1: rouge oracle equivalence", False,
                            f"mismatch {got} != {expected}")
            checked += 1
    report_line("criterion 1: rouge oracle equivalence", True,
                f"{checked} exact match-count comparisons")


# --- criterion 2 -----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def simplex_grid(k: int, ticks: int = 100) -> np.ndarray:
    if k == 2:
        rows = [(i, ticks - i) for i in range(ticks + 1)]
    elif k == 3:
        rows = [
            (i, j, ticks - i - j)
            for i in range(ticks + 1)
            for j in range(ticks + 1 - i)
        ]
    elif k == 4:
        rows = [
            (i, j, l, ticks - i - j - l)
            for i in range(ticks + 1)
            for j in range(ticks + 1 - i)
            for l in range(ticks + 1 - i - j)
        ]
    else:
        raise NotImplementedError
    return np.asarray(rows, dtype=float) / ticks


def wcs_grid_search_minimum(rank_rows, lam, rng, step=0.01):
    """Minimum of the consensus objective over the product grid.

    Enumerates every simplex grid point for w.  For fixed w the objective
    separates per coordinate of r*, and each coordinate term is a convex
    parabola in the grid variable, so its grid minimum sits at a grid
    point nearest the vertex; a random sample of cells is re-checked by
    full enumeration over all grid values.
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


def test_criterion_2_wcs_matches_grid_search():
    rng = random.Random(77)
    lam = RunConfig.lambda_
    worst_gap = -math.inf
    for instance in range(100):
        k = rng.randint(2, 4)
        n = rng.randint(2, 5)
        lists = random_permutation_lists(rng, k, n)
        result = wcs_aggregate(lists, lam)
        expected, traces = reference_wcs_aggregate(lists, lam, WCS_TOL, WCS_MAX_ITER)
        if result != expected:
            report_line("criterion 2: consensus optimizer vs grid search", False,
                        f"differs from the sequential restarts (instance {instance})")
        if not all(non_increasing(trace) for trace in traces):
            report_line("criterion 2: consensus optimizer vs grid search", False,
                        f"objective increased (instance {instance})")
        weights = result.weights
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            report_line("criterion 2: consensus optimizer vs grid search", False,
                        f"weights off the simplex (instance {instance})")
        rows = np.array([
            (np.asarray(rl.ranks, dtype=float) - 1.0) / (n - 1) for rl in lists
        ])
        grid_minimum = wcs_grid_search_minimum(rows, lam, rng)
        gap = result.objective - grid_minimum
        worst_gap = max(worst_gap, gap)
        if gap > 1e-3:
            report_line("criterion 2: consensus optimizer vs grid search", False,
                        f"objective above grid minimum by {gap:.2e}")
    report_line("criterion 2: consensus optimizer vs grid search", True,
                f"100 instances, worst objective gap {worst_gap:.2e}")


# --- criterion 3 -----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def dense_simplex_points(dim: int, step: float = 1e-3) -> np.ndarray:
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if dim == 2:
        return np.column_stack([ticks, 1.0 - ticks])
    a, b = np.meshgrid(ticks, ticks)
    mask = a + b <= 1.0 + 1e-12
    return np.column_stack([a[mask], b[mask], 1.0 - a[mask] - b[mask]])


def test_criterion_3_simplex_projection():
    rng = random.Random(31337)
    worst = 0.0
    for index in range(100):
        dim = 2 if index % 2 == 0 else 3
        y = np.array([rng.uniform(-2.0, 2.0) for _ in range(dim)])
        grid = dense_simplex_points(dim)
        nearest = grid[((grid - y) ** 2).sum(axis=1).argmin()]
        projected = np.array(_project_row(y.tolist()))
        gap = np.abs(projected - nearest).max()
        worst = max(worst, gap)
        if gap > 2e-3:
            report_line("criterion 3: simplex projection vs grid search", False,
                        f"input {y}, gap {gap:.2e}")
    for _ in range(100):
        dim = rng.randint(1, 5)
        raw = np.array([rng.random() for _ in range(dim)])
        feasible = raw / raw.sum()
        again = np.array(_project_row(feasible.tolist()))
        if np.abs(again - feasible).max() > 1e-12:
            report_line("criterion 3: simplex projection vs grid search", False,
                        "not idempotent on a feasible point")
    report_line("criterion 3: simplex projection vs grid search", True,
                f"100 projections, worst deviation {worst:.2e}; idempotent")


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_consensus_identities():
    rng = random.Random(4096)
    for instance in range(500):
        n = rng.randint(2, 8)
        k = rng.randint(2, 6)
        lists = []
        for _ in range(k):
            scores = [rng.choice([0.0, 0.25, 0.5, 1.0]) for _ in range(n)]
            lists.append(RankList.from_scores(scores))
        uniform = tuple(1.0 / k for _ in range(k))
        if cwcs_aggregate(lists, uniform).order() != borda_aggregate(lists).order():
            report_line("criterion 4: consensus identities", False,
                        f"uniform weights diverge from borda (instance {instance})")
        pick = rng.randrange(k)
        basis = tuple(1.0 if i == pick else 0.0 for i in range(k))
        if cwcs_aggregate(lists, basis).ranks != lists[pick].ranks:
            report_line("criterion 4: consensus identities", False,
                        f"degenerate weight does not reproduce system {pick}")
    summary = [["storm", "hit", "coast"], ["crews", "fixed", "lines"]]
    weights = cwcs_weights(cwcs_raw_weights([ngram_counts(summary, 1)] * 3))
    if weights != pytest.approx((1 / 3,) * 3):
        report_line("criterion 4: consensus identities", False,
                    "identical summaries did not give uniform weights")
    report_line("criterion 4: consensus identities", True,
                "500 ensembles: borda equivalence and basis-vector identity")


# --- criteria 5 and 6 ------------------------------------------------------

def fixture_config(**overrides):
    defaults = dict(
        corpus=FIXTURE,
        corpus_format="jsonl",
        budget=LengthBudget("words", 50),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_criterion_5_oracle_dominance():
    config = fixture_config()
    report = run_evaluation(config)
    oracle = report.averages["oracle"]["R-1"]
    gaps = {
        system: oracle - report.averages[system]["R-1"]
        for system in config.systems
    }
    ok = all(gap >= -1e-12 for gap in gaps.values())
    report_line("criterion 5: oracle dominance on the fixture corpus", ok,
                f"oracle R-1 {oracle:.3f}, smallest margin {min(gaps.values()):.3f}")


def test_criterion_6_pipeline_determinism(tmp_path):
    outputs = []
    for name, jobs in (("first", 1), ("second", 1), ("jobs4", 4)):
        report = run_evaluation(fixture_config(jobs=jobs))
        path = emit_report(report, "json", tmp_path / f"{name}.json")
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report_line("criterion 6: byte-identical reports across runs and jobs", ok,
                f"{len(outputs[0])} bytes each")


# --- criterion 7 -----------------------------------------------------------

def brute_single_sentence_kl(cluster, index, k):
    from collections import Counter

    cluster_counts = Counter()
    for s in cluster.sentences:
        cluster_counts.update(s.tokens)
    total = sum(cluster_counts.values())
    counts = Counter(cluster.sentences[index].tokens)
    t = sum(counts.values())
    denom = t + k * (len(cluster_counts) + 1)
    kl = 0.0
    for token, c in sorted(cluster_counts.items()):
        p = (counts[token] + k) / denom
        kl += p * math.log(p / (c / total))
    return kl


def test_criterion_7_greedykl_first_pick():
    rng = random.Random(7777)
    vocab = ["ash", "birch", "cedar", "dune", "elm", "fern", "gorse", "heath"]
    for instance in range(50):
        sentences = [
            " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
            for _ in range(rng.randint(2, 6))
        ]
        cluster = word_cluster([sentences])
        k = 0.0005 * len({t for s in cluster.sentences for t in s.tokens})
        first = greedykl_rank(ClusterFeatures(cluster)).order()[0]
        values = [
            brute_single_sentence_kl(cluster, i, k)
            for i in range(len(cluster.sentences))
        ]
        if brute_single_sentence_kl(cluster, first, k) > min(values) + 1e-9:
            report_line("criterion 7: greedy selection vs exhaustive first pick",
                        False, f"instance {instance}: pick {first} not optimal")
        margin = sorted(values)
        if len(margin) > 1 and margin[1] - margin[0] > 1e-9:
            if first != values.index(min(values)):
                report_line("criterion 7: greedy selection vs exhaustive first pick",
                            False, f"instance {instance}: unique argmin missed")
    report_line("criterion 7: greedy selection vs exhaustive first pick", True,
                "50 toy clusters")


# --- criteria 8-10: conditional reproduction on licensed DUC data ----------

DUC_GATE = (
    "requires licensed DUC data converted to the duc-dir layout; set "
    "SUMM_DUC2003_DIR and/or SUMM_DUC2004_DIR to the corpus roots"
)

PAPER_TABLE = {
    "2003": {"cwcs": 0.390, "wcs": 0.375, "borda": 0.351, "duplicates": 34.0},
    "2004": {"cwcs": 0.409, "wcs": 0.382, "borda": 0.360, "duplicates": 26.0},
}


def duc_corpus(year):
    root = os.environ.get(f"SUMM_DUC{year}_DIR")
    if not root:
        pytest.skip(f"criteria 8-10 for DUC {year}: {DUC_GATE}")
    return root


@functools.lru_cache(maxsize=None)
def duc_report(year):
    budget = LengthBudget("words", 100) if year == "2003" else LengthBudget("bytes", 665)
    config = RunConfig(
        corpus=duc_corpus(year),
        corpus_format="duc-dir",
        budget=budget,
    )
    return run_evaluation(config)


@pytest.mark.parametrize("year", ["2003", "2004"])
def test_criterion_8_table_orderings(year):
    report = duc_report(year)
    cwcs = report.averages["cwcs"]["R-1"]
    wcs = report.averages["wcs"]["R-1"]
    borda = report.averages["borda"]["R-1"]
    expected = PAPER_TABLE[year]
    ordering = cwcs > wcs > borda
    absolute = abs(cwcs - expected["cwcs"]) <= 0.03
    report_line(
        f"criterion 8: DUC {year} aggregate ordering and absolute recall",
        ordering and absolute,
        f"cwcs {cwcs:.3f} wcs {wcs:.3f} borda {borda:.3f}, "
        f"target cwcs {expected['cwcs']:.3f} +/- 0.03",
    )


@pytest.mark.parametrize("year", ["2003", "2004"])
def test_criterion_9_pseudo_relevance_validity(year):
    report = duc_report(year)
    tau = report.stats["kendall_tau_corpus"]
    report_line(
        f"criterion 9: DUC {year} pseudo-reference ranking agreement",
        tau is not None and tau >= 0.5,
        f"corpus-level kendall tau {tau}",
    )


@pytest.mark.parametrize("year", ["2003", "2004"])
def test_criterion_10_duplicate_statistic(year):
    report = duc_report(year)
    mean = report.stats["mean_duplicate_sentences"]
    expected = PAPER_TABLE[year]["duplicates"]
    report_line(
        f"criterion 10: DUC {year} repeated-sentence statistic",
        abs(mean - expected) <= 8.0,
        f"mean duplicated sentences per cluster {mean:.1f}, target {expected} +/- 8",
    )
