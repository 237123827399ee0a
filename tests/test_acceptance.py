"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to see the
lines as they happen).  Criteria 8-10 need the licensed DUC corpora
converted to the duc-dir layout; point SUMM_DUC2003_DIR / SUMM_DUC2004_DIR
at the corpus roots to enable them, otherwise they are skipped.

Criteria 1-7 and the hypothesis oracle modules (``test_scoring_oracles``,
``test_ranker_oracles``) hold the properties of random instances; the
per-module tests hold hand values, validation and edge cases.  A new
property test goes into one of these homes, not next to a copy of it.
"""

import functools
import math
import os
import random

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
from summ.cli import main
from summ.harness import RunConfig, emit_report, run_evaluation
from summ.rouge import rouge_n_recall
from summ.summarizers import ClusterFeatures, LengthBudget, greedykl_rank

from reference.consensus import (
    nearest_simplex_point,
    non_increasing,
    reference_wcs_aggregate,
    wcs_grid_minimum,
)
from reference.fixture import FIXTURE, fixture_config, permutation_rank_lists
from reference.fixture import tied_rank_lists, word_cluster
from reference.rankers import summary_kl
from reference.rouge import clipped_match, ngram_counts


def report_line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --- criterion 1 -----------------------------------------------------------

def test_criterion_1_rouge_oracle_equivalence():
    name = "criterion 1: rouge oracle equivalence"
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
            expected, _ = clipped_match(sentences, reference, n)
            got = rouge_n_recall(
                ngram_counts(sentences, n), [ngram_counts([reference], n)], n
            ).match_count
            if got != expected:
                report_line(name, False, f"mismatch {got} != {expected}")
            checked += 1
    report_line(name, True, f"{checked} exact match-count comparisons")


# --- criterion 2 -----------------------------------------------------------

def test_criterion_2_wcs_matches_grid_search():
    name = "criterion 2: consensus optimizer vs grid search"
    rng = random.Random(77)
    lam = RunConfig.lambda_
    worst_gap = -math.inf
    for instance in range(100):
        k = rng.randint(2, 4)
        n = rng.randint(2, 6)
        lists = permutation_rank_lists(rng, k, n)
        result = wcs_aggregate(lists, lam)
        expected, traces = reference_wcs_aggregate(lists, lam, WCS_TOL, WCS_MAX_ITER)
        if result != expected:
            report_line(name, False, f"differs from the sequential restarts (instance {instance})")
        if not all(non_increasing(trace) for trace in traces):
            report_line(name, False, f"objective increased (instance {instance})")
        weights = result.weights
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            report_line(name, False, f"weights off the simplex (instance {instance})")
        rows = np.array([
            (np.asarray(rl.ranks, dtype=float) - 1.0) / (n - 1) for rl in lists
        ])
        grid_minimum = wcs_grid_minimum(rows, lam, rng)
        gap = result.objective - grid_minimum
        worst_gap = max(worst_gap, gap)
        if gap > 1e-3:
            report_line(name, False, f"objective above grid minimum by {gap:.2e}")
    report_line(name, True, f"100 instances, worst objective gap {worst_gap:.2e}")


# --- criterion 3 -----------------------------------------------------------

def test_criterion_3_simplex_projection():
    name = "criterion 3: simplex projection vs grid search"
    rng = random.Random(31337)
    worst = 0.0
    for index in range(100):
        dim = 2 if index % 2 == 0 else 3
        y = np.array([rng.uniform(-2.0, 2.0) for _ in range(dim)])
        nearest = nearest_simplex_point(y)
        projected = np.array(_project_row(y.tolist()))
        gap = np.abs(projected - nearest).max()
        worst = max(worst, gap)
        if gap > 2e-3:
            report_line(name, False, f"input {y}, gap {gap:.2e}")
    for _ in range(100):
        dim = rng.randint(1, 6)
        raw = np.array([rng.random() for _ in range(dim)])
        feasible = raw / raw.sum()
        again = np.array(_project_row(feasible.tolist()))
        if np.abs(again - feasible).max() > 1e-12:
            report_line(name, False, "not idempotent on a feasible point")
    report_line(name, True, f"100 projections, worst deviation {worst:.2e}; idempotent")


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_consensus_identities():
    name = "criterion 4: consensus identities"
    rng = random.Random(4096)
    for instance in range(500):
        n = rng.randint(2, 8)
        k = rng.randint(2, 6)
        lists = tied_rank_lists(rng, k, n, (0.0, 0.25, 0.5, 1.0))
        uniform = tuple(1.0 / k for _ in range(k))
        if cwcs_aggregate(lists, uniform).order() != borda_aggregate(lists).order():
            report_line(name, False, f"uniform weights diverge from borda (instance {instance})")
        pick = rng.randrange(k)
        basis = tuple(1.0 if i == pick else 0.0 for i in range(k))
        if cwcs_aggregate(lists, basis).ranks != lists[pick].ranks:
            report_line(name, False, f"degenerate weight does not reproduce system {pick}")
    summary = [["storm", "hit", "coast"], ["crews", "fixed", "lines"]]
    weights = cwcs_weights(cwcs_raw_weights([ngram_counts(summary, 1)] * 3))
    if weights != pytest.approx((1 / 3,) * 3):
        report_line(name, False, "identical summaries did not give uniform weights")
    report_line(name, True, "500 ensembles: borda equivalence and basis-vector identity")


# --- criteria 5 and 6 ------------------------------------------------------

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
    for name in ("first", "second"):
        path = emit_report(run_evaluation(fixture_config()), "json", tmp_path / f"{name}.json")
        outputs.append(path.read_bytes())
    # --jobs is accepted and leaves the report as it is
    path = tmp_path / "jobs4.json"
    assert main(["run", "--corpus", FIXTURE, "--budget", "words:50", "--emit", "json",
                 "--out", str(path), "--jobs", "4"]) == 0
    outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report_line("criterion 6: byte-identical reports across runs and jobs", ok,
                f"{len(outputs[0])} bytes each")


# --- criterion 7 -----------------------------------------------------------

def test_criterion_7_greedykl_first_pick():
    name = "criterion 7: greedy selection vs exhaustive first pick"
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
            summary_kl(cluster, [i], k)
            for i in range(len(cluster.sentences))
        ]
        if summary_kl(cluster, [first], k) > min(values) + 1e-9:
            report_line(name, False, f"instance {instance}: pick {first} not optimal")
        margin = sorted(values)
        if len(margin) > 1 and margin[1] - margin[0] > 1e-9:
            if first != values.index(min(values)):
                report_line(name, False, f"instance {instance}: unique argmin missed")
    report_line(name, True, "50 toy clusters")


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
