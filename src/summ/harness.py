"""End-to-end evaluation: run systems and aggregators over a corpus,
score against references, and emit tabular reports.

Per-cluster work is pure and independent.  Clusters are evaluated one
after another on the calling thread and merged in cluster-id order, so
the report is byte-identical for every ``jobs`` value.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import porter
from .consensus import (
    AGGREGATORS,
    borda_aggregate,
    check_lambda,
    cwcs_aggregate,
    cwcs_raw_weights,
    cwcs_weights,
    oracle_select,  # noqa: F401  (traced here by bench/tracing.py)
    wcs_aggregate,
)
from .corpus import (
    ClusterRecord,
    DocumentCluster,
    build_cluster,
    duplicate_stats,
    load_corpus,
    read_corpus,
    words,
)
from .rouge import NgramIndex, prepare_sentences, prepare_text, rouge_n_recall
from .stopwords import STOPWORDS
from .sums import left_sum
from .summarizers import (
    CANDIDATE_SYSTEMS,
    ClusterFeatures,
    CorpusCounts,
    LengthBudget,
    RankList,
    Summary,
    centroid_rank,
    extract_summary,
    freqsum_rank,
    greedykl_rank,
    lexrank_rank,
    textrank_rank,
    topicsum_rank,
)

logger = logging.getLogger(__name__)

EMIT_FORMATS = ("csv", "markdown", "json")

_RANKERS = {
    "lexrank": lexrank_rank,
    "textrank": textrank_rank,
    "centroid": centroid_rank,
    "freqsum": freqsum_rank,
    "greedykl": greedykl_rank,
}


class NoSuccessfulClustersError(Exception):
    """The run produced no scorable cluster at all."""


@dataclass(frozen=True)
class RunConfig:
    corpus: str | Path
    corpus_format: str = "jsonl"
    budget: LengthBudget = LengthBudget("words", 100)
    lambda_: float = 0.5  # the uniformity penalty of wcs
    systems: tuple[str, ...] = CANDIDATE_SYSTEMS
    aggregators: tuple[str, ...] = AGGREGATORS
    rouge_orders: tuple[int, ...] = (1, 2, 4)
    redundancy_cap: float | None = None
    jobs: int = 1  # validated, not yet used: reserved for a process pool

    def __post_init__(self):
        unknown = [s for s in self.systems if s not in CANDIDATE_SYSTEMS]
        if unknown:
            raise ValueError(f"unknown systems: {unknown}")
        unknown = [a for a in self.aggregators if a not in AGGREGATORS]
        if unknown:
            raise ValueError(f"unknown aggregators: {unknown}")
        if not self.systems and not self.aggregators:
            raise ValueError("enable at least one system or aggregator")
        if self.aggregators and not self.systems:
            raise ValueError("aggregators need candidate systems")
        needs_pair = {"wcs", "cwcs"} & set(self.aggregators)
        if needs_pair and len(self.systems) < 2:
            raise ValueError(f"{sorted(needs_pair)} need at least two systems")
        if any(n < 1 for n in self.rouge_orders) or not self.rouge_orders:
            raise ValueError("rouge orders must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        # nan fails this too: no similarity exceeds it, so it disables the cap
        if self.redundancy_cap is not None and not 0.0 <= self.redundancy_cap <= 1.0:
            raise ValueError("redundancy cap must lie in [0, 1]")
        check_lambda(self.lambda_)
        if len(set(self.systems)) != len(self.systems):
            raise ValueError("duplicate system names")
        if len(set(self.aggregators)) != len(self.aggregators):
            raise ValueError("duplicate aggregator names")


@dataclass
class EvalReport:
    """Per-cluster and averaged recalls, plus run-level statistics.

    ``per_cluster[cluster][unit]["R-n"]`` holds a recall; ``failures``
    records why a unit (or a whole cluster) could not be scored.
    """

    per_cluster: dict = field(default_factory=dict)
    averages: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_cluster": self.per_cluster,
            "averages": self.averages,
            "stats": self.stats,
            "failures": self.failures,
        }


class SignTestResult(NamedTuple):
    p_value: float
    wins_a: int
    wins_b: int
    ties: int


def kendall_tau(order_a: Sequence, order_b: Sequence) -> float:
    """Tau-a rank correlation between two orderings of the same items."""
    k = len(order_a)
    if k < 2:
        raise ValueError("need at least two items")
    if len(order_b) != k or set(order_a) != set(order_b) or len(set(order_a)) != k:
        raise ValueError("orderings must cover the same distinct items")
    position = {item: i for i, item in enumerate(order_b)}
    concordant = discordant = 0
    for i in range(k):
        for j in range(i + 1, k):
            if position[order_a[i]] < position[order_a[j]]:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (k * (k - 1) / 2)


def sign_test(scores_a: Sequence[float], scores_b: Sequence[float]) -> SignTestResult:
    """Two-sided exact sign test on paired scores (ties dropped)."""
    if len(scores_a) != len(scores_b):
        raise ValueError("paired score lists must have equal length")
    if not scores_a:
        raise ValueError("need at least one pair")
    wins_a = sum(1 for a, b in zip(scores_a, scores_b) if a > b)
    wins_b = sum(1 for a, b in zip(scores_a, scores_b) if a < b)
    ties = len(scores_a) - wins_a - wins_b
    trials = wins_a + wins_b
    if trials == 0:
        return SignTestResult(1.0, wins_a, wins_b, ties)
    extreme = max(wins_a, wins_b)
    # sum of C(trials, t) for t >= extreme, each term exactly from the last
    tail = 0
    term = math.comb(trials, extreme)
    for t in range(extreme, trials + 1):
        tail += term
        term = term * (trials - t) // (t + 1)
    # exact integer division: 2.0**trials overflows a float beyond 1023 trials
    p = min(1.0, 2 * tail / 2**trials)
    return SignTestResult(p, wins_a, wins_b, ties)


class _ClusterOutcome(NamedTuple):
    cluster_id: str
    duplicates: int
    scores: dict  # unit -> {"R-n": recall}
    failures: dict  # unit or stage -> reason
    raw_weights: dict  # candidate system -> raw peer-agreement weight

    @property
    def scored(self) -> bool:
        return bool(self.scores)


class _ClusterPipeline:
    """One cluster ranked once by every system and fused by any aggregator.

    The rankers and the redundancy cap share one ``ClusterFeatures``.
    The peer inputs (the systems' own summaries, the cluster's n-gram
    index and the references in it, the cwcs weights) are built on first
    use and shared from then on; a build that raises keeps nothing.  So is
    each summary's ROUGE-n recall, which the oracle and the scoring share.
    """

    def __init__(self, cluster: DocumentCluster, corpus: CorpusCounts | None,
                 config: RunConfig, orders: Sequence[int] = (1,)):
        self.cluster, self.config = cluster, config
        self.index = NgramIndex(orders)
        self.features = ClusterFeatures(cluster)
        self.rank_lists: dict[str, RankList] = {}
        self.failures: dict[str, str] = {}
        self.recalls: dict[tuple[int, tuple[str, ...]], float] = {}
        for name in config.systems:
            try:
                self.rank_lists[name] = (
                    topicsum_rank(self.features, corpus)
                    if name == "topicsum"
                    else _RANKERS[name](self.features)
                )
            except Exception as exc:
                self.failures[name] = str(exc)
        self.systems = [s for s in config.systems if s in self.rank_lists]

    def units(self, summaries: dict[str, Summary]) -> dict[str, tuple[str, ...]]:
        """Each summary as its sentence texts, with the sentences the index
        has not seen tokenized in one batch."""
        raw = self.cluster.sentences
        units = {
            name: tuple(raw[i].raw_text for i in summary.sentence_indices)
            for name, summary in summaries.items()
        }
        self.index.add(chain.from_iterable(units.values()), prepare_sentences)
        return units

    @cached_property
    def system_units(self) -> dict[str, tuple[str, ...]]:
        """The systems' own (uncapped) summaries, as index units."""
        budget = self.config.budget
        return self.units({
            s: extract_summary(self.rank_lists[s], self.features, budget) for s in self.systems
        })

    @cached_property
    def references(self) -> NgramIndex:
        """The index, with the references tokenized into it."""
        self.index.set_references([prepare_text(r.text) for r in self.cluster.references])
        return self.index

    @cached_property
    def raw_weights(self) -> list[float]:
        return cwcs_raw_weights(
            [self.index.unigrams(unit) for unit in self.system_units.values()]
        )

    def recall(self, unit: tuple[str, ...], n: int) -> float:
        """The unit's ROUGE-n recall against the references.  A summary
        that two units share (the oracle's and its pick's, or equal
        extractions), or an order asked for twice, is scored once."""
        key = (n, unit)
        if key not in self.recalls:
            index = self.references
            self.recalls[key] = rouge_n_recall(
                index.counts(unit, n), index.references(n), n
            ).recall
        return self.recalls[key]

    def extract(self, rank_list: RankList) -> Summary:
        """The rank list's summary under the configured redundancy cap."""
        return extract_summary(
            rank_list, self.features, self.config.budget, self.config.redundancy_cap
        )

    def fuse(self, aggregator: str) -> tuple[RankList, str | None]:
        """The aggregator's rank list, and the system the oracle picked
        (None for the other aggregators)."""
        lists = [self.rank_lists[s] for s in self.systems]
        if not lists:
            raise ValueError("no candidate system succeeded")
        if aggregator == "borda":
            return borda_aggregate(lists), None
        if aggregator == "wcs":
            return wcs_aggregate(lists, self.config.lambda_).rank_list, None
        if aggregator == "cwcs":
            try:
                weights = cwcs_weights(self.raw_weights)
            except ValueError as exc:
                raise ValueError("peer-agreement weights unavailable") from exc
            return cwcs_aggregate(lists, weights), None
        if not self.references.references(1):
            raise ValueError("oracle requires reference summaries")
        recalls = [self.recall(unit, 1) for unit in self.system_units.values()]
        best = recalls.index(max(recalls))  # ties go to the first system
        return lists[best], self.systems[best]


def _evaluate_cluster(
    cluster: DocumentCluster, corpus: CorpusCounts, config: RunConfig
) -> _ClusterOutcome:
    duplicates = duplicate_stats(cluster)
    try:
        return _evaluate_cluster_inner(cluster, corpus, config, duplicates)
    except Exception as exc:  # a broken cluster must not abort the run
        logger.warning("cluster %s failed: %s", cluster.cluster_id, exc)
        return _ClusterOutcome(
            cluster_id=cluster.cluster_id,
            duplicates=duplicates,
            scores={},
            failures={"cluster": str(exc)},
            raw_weights={},
        )


def _evaluate_cluster_inner(
    cluster: DocumentCluster,
    corpus: CorpusCounts,
    config: RunConfig,
    duplicates: int,
) -> _ClusterOutcome:
    # every sentence and reference is tokenized once into the index, which
    # serves the peer matrix, the oracle and the scoring
    pipeline = _ClusterPipeline(
        cluster, corpus, config, sorted({1, *config.rouge_orders})
    )
    failures = pipeline.failures
    # the stats compare every system's raw weight with its recall, so the
    # weights are built whether or not cwcs runs
    raw_weights: dict[str, float] = {}
    if len(pipeline.systems) >= 2:
        try:
            raw_weights = dict(zip(pipeline.systems, pipeline.raw_weights))
        except Exception as exc:
            failures["cwcs-weights"] = str(exc)
    units = dict(pipeline.system_units)
    summaries: dict[str, Summary] = {}
    for aggregator in config.aggregators:
        try:
            rank_list, picked = pipeline.fuse(aggregator)
            if picked:
                units[aggregator] = units[picked]
            else:
                summaries[aggregator] = pipeline.extract(rank_list)
        except Exception as exc:
            failures[aggregator] = str(exc)
    units.update(pipeline.units(summaries))

    scores: dict[str, dict[str, float]] = {}
    if cluster.references:
        index = pipeline.references
        for n in config.rouge_orders:
            if not any(index.references(n)):
                failures[f"rouge-{n}"] = "no reference with n-grams of this order"
        for unit in list(config.systems) + list(config.aggregators):
            if unit not in units:
                continue
            row = {
                f"R-{n}": pipeline.recall(units[unit], n)
                for n in config.rouge_orders if f"rouge-{n}" not in failures
            }
            if row:
                scores[unit] = row
    else:
        failures["cluster"] = "no reference summaries; excluded from averages"

    return _ClusterOutcome(
        cluster_id=cluster.cluster_id,
        duplicates=duplicates,
        scores=scores,
        failures=failures,
        raw_weights=raw_weights,
    )


def _token_counts(token_streams: Iterable[Iterable[str]]) -> Counter:
    """Token counts pooled over the streams: topicsum's corpus counts, from
    every sentence of the corpus.  Every raw document gives the same,
    since sentences split only at whitespace and no token spans it."""
    return Counter(chain.from_iterable(token_streams))


def _cluster_corpus_counts(
    records: Sequence[ClusterRecord], cluster: DocumentCluster
) -> CorpusCounts:
    """Topicsum's corpus counts at the cluster's own tokens, and the total,
    from every raw document of the corpus.

    Both come from the surface words less the stopwords (``tokenize``
    short of its stem step), which stem one by one into the tokens.  A
    word that stems to a token starts with the token's core, its shortest
    non-empty prefix that leaves a tail (``porter.TAILS``), so only the
    words that start with a core are stemmed.
    """
    surface = Counter(chain.from_iterable(
        words(d.text) for r in records for d in r.documents
    ))
    for word in STOPWORDS.intersection(surface):  # once per distinct word
        del surface[word]
    tails = porter.TAILS
    tokens = {t for s in cluster.sentences for t in s.tokens}
    cores = {next(t[:p] for p in range(1, len(t) + 1) if t[p:] in tails) for t in tokens}
    ordered = sorted(surface)
    candidates = set()
    for core in cores:
        # the words from the core up to, not including, its successor
        after = core[:-1] + chr(ord(core[-1]) + 1)
        candidates.update(ordered[bisect_left(ordered, core):bisect_left(ordered, after)])
    counts = Counter()
    for word in candidates:
        token = porter.stem(word)
        if token in tokens:
            counts[token] += surface[word]
    return CorpusCounts(counts, surface.total())


def _mean(values: Sequence[float]) -> float:
    return left_sum(values) / len(values)


def _ranking(means: dict[str, float]) -> list[str]:
    return sorted(means, key=lambda s: (-means[s], s))


def _recalls(outcomes: list[_ClusterOutcome], unit: str, order: str) -> dict[str, float]:
    """``{cluster_id: recall}`` of the unit at the order, in cluster order,
    for each cluster that scored it."""
    return {
        o.cluster_id: o.scores[unit][order]
        for o in outcomes
        if order in o.scores.get(unit, {})
    }


def _assemble_stats(
    outcomes: list[_ClusterOutcome], config: RunConfig
) -> dict:
    """Run statistics.  Recalls are taken at the first ``rouge_orders``
    entry: with orders (2, 4), ``true_rouge1_means``, the taus and the sign
    tests all use R-2.  The key keeps its name, so reports keep their bits."""
    stats: dict = {}
    stats["clusters_total"] = len(outcomes)
    stats["clusters_scored"] = sum(1 for o in outcomes if o.scored)
    stats["unscored_clusters"] = [o.cluster_id for o in outcomes if not o.scored]
    stats["duplicate_sentences"] = {o.cluster_id: o.duplicates for o in outcomes}
    stats["mean_duplicate_sentences"] = _mean([o.duplicates for o in outcomes])

    # pseudo-reference validity: systems ranked by true recall vs by raw
    # peer-agreement weight, corpus level and per cluster
    first_order = f"R-{config.rouge_orders[0]}"
    recalls = {s: _recalls(outcomes, s, first_order) for s in config.systems}
    true_means: dict[str, float] = {}
    weight_means: dict[str, float] = {}
    for system in config.systems:
        weights = [
            o.raw_weights[system] for o in outcomes if system in o.raw_weights
        ]
        if recalls[system]:
            true_means[system] = _mean(list(recalls[system].values()))
        if weights:
            weight_means[system] = _mean(weights)
    stats["true_rouge1_means"] = true_means
    stats["pseudo_weight_means"] = weight_means
    shared = [s for s in config.systems if s in true_means and s in weight_means]
    if len(shared) >= 2:
        stats["kendall_tau_corpus"] = kendall_tau(
            _ranking({s: true_means[s] for s in shared}),
            _ranking({s: weight_means[s] for s in shared}),
        )
    else:
        stats["kendall_tau_corpus"] = None
    per_cluster_tau = {}
    for outcome in outcomes:
        cluster_id = outcome.cluster_id
        shared = [
            s for s in config.systems
            if s in outcome.raw_weights and cluster_id in recalls[s]
        ]
        if len(shared) < 2:
            continue
        per_cluster_tau[cluster_id] = kendall_tau(
            _ranking({s: recalls[s][cluster_id] for s in shared}),
            _ranking({s: outcome.raw_weights[s] for s in shared}),
        )
    stats["kendall_tau_per_cluster"] = per_cluster_tau

    # paired sign tests of the content-weighted aggregate against each
    # other unit, on per-cluster recalls at the first configured order
    tests = {}
    if "cwcs" in config.aggregators:
        cwcs = _recalls(outcomes, "cwcs", first_order)
        units = [u for u in list(config.systems) + list(config.aggregators) if u != "cwcs"]
        for unit in units:
            other = _recalls(outcomes, unit, first_order)
            common = [c for c in cwcs if c in other]
            if not common:
                continue
            result = sign_test([cwcs[c] for c in common], [other[c] for c in common])
            tests[f"cwcs_vs_{unit}"] = {
                "p_value": result.p_value,
                "wins_a": result.wins_a,
                "wins_b": result.wins_b,
                "ties": result.ties,
            }
    stats["sign_tests"] = tests
    return stats


def run_evaluation(config: RunConfig) -> EvalReport:
    """Run every enabled system and aggregator over the corpus and score
    the summaries against the reference summaries.

    Clusters without references are summarized but excluded from the
    averages; per-cluster failures are recorded, never fatal.  Raises
    ``NoSuccessfulClustersError`` when nothing could be scored.
    """
    clusters = load_corpus(config.corpus, config.corpus_format)
    counts = _token_counts(s.tokens for c in clusters for s in c.sentences)
    corpus = CorpusCounts(counts, counts.total())
    # serial for every jobs value: a thread pool was slower, since the
    # pipeline holds the interpreter lock (README, --jobs)
    outcomes = [_evaluate_cluster(cluster, corpus, config) for cluster in clusters]

    if not any(o.scored for o in outcomes):
        raise NoSuccessfulClustersError(
            "no cluster produced scorable summaries (missing references?)"
        )

    report = EvalReport()
    for outcome in outcomes:
        if outcome.scores:
            report.per_cluster[outcome.cluster_id] = outcome.scores
        if outcome.failures:
            report.failures[outcome.cluster_id] = outcome.failures
    for unit in list(config.systems) + list(config.aggregators):
        per_order: dict[str, list[float]] = {}
        for outcome in outcomes:
            for key, value in outcome.scores.get(unit, {}).items():
                per_order.setdefault(key, []).append(value)
        if per_order:
            report.averages[unit] = {
                key: _mean(values) for key, values in sorted(per_order.items())
            }
    report.stats = _assemble_stats(outcomes, config)
    return report


def summarize_cluster(
    config: RunConfig, cluster_id: str, aggregator: str
) -> list[str]:
    """Aggregate summary sentences (raw text) for one cluster."""
    if aggregator not in AGGREGATORS:
        raise ValueError(f"aggregator must be one of {AGGREGATORS}")
    # the whole corpus is read and validated, and counted if topicsum runs,
    # but only the requested cluster is segmented into sentences
    records = read_corpus(config.corpus, config.corpus_format)
    record = next((r for r in records if r.cluster_id == cluster_id), None)
    if record is None:
        raise NoSuccessfulClustersError(
            f"no cluster {cluster_id!r} in {config.corpus}"
        )
    cluster = build_cluster(record)
    corpus = _cluster_corpus_counts(records, cluster) if "topicsum" in config.systems else None
    pipeline = _ClusterPipeline(cluster, corpus, config)
    for name, reason in pipeline.failures.items():
        logger.warning("system %s skipped for %s: %s", name, cluster_id, reason)
    # a cluster too poor for the aggregator (no system ranked it, too few
    # for wcs and cwcs, no references for the oracle) is a data outcome,
    # not a usage error; cwcs names why its peer weights are unavailable
    try:
        rank_list, _ = pipeline.fuse(aggregator)
    except ValueError as exc:
        raise NoSuccessfulClustersError(str(exc.__cause__ or exc)) from exc
    # under a redundancy cap this re-extracts the oracle's pick capped, while
    # `run` scores the pick's uncapped summary; aligning the two changes the
    # recorded summarize-one benchmark digests, so it is left for a change
    # that re-records them
    summary = pipeline.extract(rank_list)
    return [cluster.sentences[i].raw_text for i in summary.sentence_indices]


def emit_report(report: EvalReport, format: str, path: str | Path) -> Path:
    """Write the report as csv, markdown or json (returns the path)."""
    path = Path(path)
    if not report.averages:
        raise ValueError("report is empty")
    orders = sorted({k for row in report.averages.values() for k in row}, key=lambda k: int(k[2:]))
    if format == "csv":
        import csv  # only this format uses it, so other runs skip the import

        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["system"] + orders)
            for unit, row in report.averages.items():
                writer.writerow([unit] + [f"{row[o]:.6f}" if o in row else "" for o in orders])
    elif format == "markdown":
        lines = ["| System | " + " | ".join(orders) + " |"]
        lines.append("|" + "---|" * (len(orders) + 1))
        for unit, row in report.averages.items():
            cells = [f"{row[o]:.4f}" if o in row else "-" for o in orders]
            lines.append(f"| {unit} | " + " | ".join(cells) + " |")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif format == "json":
        path.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    else:
        raise ValueError(f"unknown report format {format!r}")
    return path
