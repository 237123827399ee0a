import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from summ import harness
from summ.corpus import load_corpus
from summ.harness import (
    EvalReport,
    NoSuccessfulClustersError,
    RunConfig,
    emit_report,
    kendall_tau,
    run_evaluation,
    sign_test,
    summarize_cluster,
)
from summ.rouge import ngram_counts, prepare_sentences, prepare_text, rouge_n_recall
from summ.summarizers import LengthBudget, SummarizerConfig

FIXTURE = Path(__file__).parent / "data" / "fixture.jsonl"


def fixture_config(**overrides):
    defaults = dict(
        corpus=FIXTURE,
        corpus_format="jsonl",
        summarizer=SummarizerConfig(budget=LengthBudget("words", 50)),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_reversed(self):
        assert kendall_tau(["a", "b", "c", "d"], ["d", "c", "b", "a"]) == -1.0

    def test_adjacent_swap(self):
        assert kendall_tau(["a", "b", "c"], ["b", "a", "c"]) == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            kendall_tau(["a"], ["a"])
        with pytest.raises(ValueError):
            kendall_tau(["a", "b"], ["a", "c"])
        with pytest.raises(ValueError):
            kendall_tau(["a", "a"], ["a", "a"])

    def test_random_identities(self):
        rng = random.Random(97)
        for _ in range(50):
            k = rng.randint(2, 9)
            order = [f"s{i}" for i in range(k)]
            rng.shuffle(order)
            assert kendall_tau(order, order) == 1.0
            assert kendall_tau(order, order[::-1]) == -1.0
            assert -1.0 <= kendall_tau(order, sorted(order)) <= 1.0


class TestSignTest:
    def test_clean_sweep(self):
        result = sign_test([1.0] * 10, [0.0] * 10)
        assert result.p_value == pytest.approx(0.001953125)
        assert (result.wins_a, result.wins_b, result.ties) == (10, 0, 0)

    def test_eight_two(self):
        a = [1.0] * 8 + [0.0] * 2
        b = [0.0] * 8 + [1.0] * 2
        result = sign_test(a, b)
        assert result.p_value == pytest.approx(0.109375)

    def test_all_ties(self):
        result = sign_test([0.5, 0.5], [0.5, 0.5])
        assert result.p_value == 1.0
        assert result.ties == 2

    def test_symmetric(self):
        rng = random.Random(101)
        for _ in range(50):
            n = rng.randint(1, 12)
            a = [rng.choice([0.0, 0.5, 1.0]) for _ in range(n)]
            b = [rng.choice([0.0, 0.5, 1.0]) for _ in range(n)]
            assert sign_test(a, b).p_value == sign_test(b, a).p_value

    def test_equals_float_formula_up_to_1023_trials(self):
        # the float formula every report so far was computed with
        def float_formula(wins_a, wins_b):
            trials = wins_a + wins_b
            extreme = max(wins_a, wins_b)
            tail = sum(math.comb(trials, t) for t in range(extreme, trials + 1))
            return min(1.0, 2.0 * tail / 2.0**trials)

        cases = [(a, t - a) for t in range(1, 120) for a in range(t + 1)]
        cases += [(a, 1023 - a) for a in (0, 300, 480, 511, 512, 600, 1023)]
        for wins_a, wins_b in cases:
            result = sign_test([1.0] * wins_a + [0.0] * wins_b,
                               [0.0] * wins_a + [1.0] * wins_b)
            assert result.p_value == float_formula(wins_a, wins_b), (wins_a, wins_b)

    @pytest.mark.parametrize("wins_a,wins_b", [
        (560, 540), (600, 500), (1100, 0), (5100, 4900), (5000, 5000), (5300, 4700),
    ])
    def test_beyond_float_range(self, wins_a, wins_b):
        # more than 1023 non-tied pairs overflowed 2.0**trials
        trials = wins_a + wins_b
        log_terms = [
            math.lgamma(trials + 1) - math.lgamma(t + 1) - math.lgamma(trials - t + 1)
            - trials * math.log(2.0)
            for t in range(max(wins_a, wins_b), trials + 1)
        ]
        top = max(log_terms)
        scaled = math.fsum(math.exp(x - top) for x in log_terms)
        expected = min(1.0, 2.0 * math.exp(top) * scaled)
        result = sign_test([1.0] * wins_a + [0.0] * wins_b + [0.5],
                           [0.0] * wins_a + [1.0] * wins_b + [0.5])
        assert result.p_value == pytest.approx(expected, rel=1e-9, abs=1e-300)
        assert (result.wins_a, result.wins_b, result.ties) == (wins_a, wins_b, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            sign_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            sign_test([], [])


class TestRunEvaluation:
    def test_fixture_report_shape(self):
        config = fixture_config()
        report = run_evaluation(config)
        units = list(config.systems) + list(config.aggregators)
        assert list(report.averages) == units
        assert set(report.per_cluster) == {"c01-storm", "c02-election", "c03-probe"}
        for cluster_id, row in report.per_cluster.items():
            failed = set(report.failures.get(cluster_id, {}))
            for unit in units:
                assert unit in row or unit in failed

    def test_averages_are_cluster_means(self):
        report = run_evaluation(fixture_config())
        for unit, averages in report.averages.items():
            for key, value in averages.items():
                per_cluster = [
                    row[unit][key]
                    for row in report.per_cluster.values()
                    if unit in row and key in row[unit]
                ]
                assert value == pytest.approx(
                    sum(per_cluster) / len(per_cluster), abs=1e-9
                )

    def test_oracle_dominates_candidates(self):
        config = fixture_config()
        report = run_evaluation(config)
        oracle = report.averages["oracle"]["R-1"]
        for system in config.systems:
            assert oracle >= report.averages[system]["R-1"] - 1e-12

    def test_verbatim_reference_gives_oracle_recall_one(self, tmp_path):
        text = "Storm rescue teams saved families from flooded homes overnight."
        record = {
            "cluster_id": "only",
            "documents": [
                {"id": "d0", "text": text},
                {"id": "d1", "text": "Ok go."},
            ],
            "references": [{"author": "A", "text": text}],
        }
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record])
        report = run_evaluation(fixture_config(corpus=path))
        assert report.averages["oracle"]["R-1"] == 1.0
        # a single-cluster corpus leaves topicsum no background
        assert "background required" in report.failures["only"]["topicsum"]

    def test_disabling_aggregators_leaves_candidate_rows(self):
        config = fixture_config(aggregators=())
        report = run_evaluation(config)
        assert list(report.averages) == list(config.systems)

    def test_cluster_without_references_excluded(self, tmp_path):
        records = [
            {
                "cluster_id": "scored",
                "documents": [
                    {"id": "d0", "text": "Storm flooded the coast. Rescue teams arrived."},
                    {"id": "d1", "text": "The storm cut power. Crews repaired lines."},
                ],
                "references": [{"author": "A", "text": "Storm flooded the coast and cut power."}],
            },
            {
                "cluster_id": "unscored",
                "documents": [
                    {"id": "d0", "text": "Voters picked a mayor. The race was close."},
                    {"id": "d1", "text": "The mayor promised transit fixes."},
                ],
            },
        ]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, records)
        report = run_evaluation(fixture_config(corpus=path))
        assert set(report.per_cluster) == {"scored"}
        assert report.stats["unscored_clusters"] == ["unscored"]
        assert report.stats["clusters_total"] == 2

    def test_no_references_anywhere_is_an_error(self, tmp_path):
        record = {
            "cluster_id": "c1",
            "documents": [{"id": "d0", "text": "Words fill the page here."}],
        }
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record])
        with pytest.raises(NoSuccessfulClustersError):
            run_evaluation(fixture_config(corpus=path))

    def test_parallelism_does_not_change_report(self):
        serial = run_evaluation(fixture_config(jobs=1))
        threaded = run_evaluation(fixture_config(jobs=4))
        assert serial == threaded

    def test_stats_contents(self):
        report = run_evaluation(fixture_config())
        stats = report.stats
        assert stats["clusters_scored"] == 3
        assert stats["mean_duplicate_sentences"] == pytest.approx(1 / 3)
        assert set(stats["true_rouge1_means"]) == set(fixture_config().systems)
        assert -1.0 <= stats["kendall_tau_corpus"] <= 1.0
        assert set(stats["sign_tests"]) == {
            f"cwcs_vs_{u}" for u in
            ("lexrank", "textrank", "centroid", "freqsum", "topicsum", "greedykl",
             "borda", "wcs", "oracle")
        }

    def test_config_validation(self):
        with pytest.raises(ValueError):
            fixture_config(systems=())
        with pytest.raises(ValueError):
            fixture_config(systems=("nosuch",))
        with pytest.raises(ValueError):
            fixture_config(systems=("lexrank",), aggregators=("wcs",))
        with pytest.raises(ValueError):
            fixture_config(jobs=0)
        with pytest.raises(ValueError):
            fixture_config(rouge_orders=())


class TestTokenizeOnce:
    @pytest.mark.parametrize("cap", [None, 0.5])
    def test_each_summary_sentence_and_reference_once_per_cluster(self, monkeypatch, cap):
        calls, texts, references, summaries = [], [], [], []
        originals = harness.prepare_sentences, harness.prepare_text, harness.extract_summary

        def prepare_sentences(batch):
            calls.append(len(batch))
            texts.extend(batch)
            return originals[0](batch)

        def extract_summary(*args, **kwargs):
            summaries.append(originals[2](*args, **kwargs))
            return summaries[-1]

        monkeypatch.setattr(harness, "prepare_sentences", prepare_sentences)
        monkeypatch.setattr(
            harness, "prepare_text", lambda text: references.append(text) or originals[1](text)
        )
        monkeypatch.setattr(harness, "extract_summary", extract_summary)
        config = fixture_config(redundancy_cap=cap)
        clusters = load_corpus(FIXTURE, "jsonl")
        for cluster in clusters:
            for made in (calls, texts, references, summaries):
                made.clear()
            outcome = harness._evaluate_cluster(cluster, harness._corpus_counts(clusters), config)
            assert outcome.scored
            assert Counter(references) == Counter(r.text for r in cluster.references)
            # every extracted summary is scored, each distinct sentence
            # tokenized once: the systems' in one batch, the aggregates' in one
            extracted = {
                cluster.sentences[i].raw_text for s in summaries for i in s.sentence_indices
            }
            assert len(summaries) == len(config.systems) + 3
            assert sorted(texts) == sorted(extracted)
            assert 1 <= len(calls) <= 2

    def test_borda_and_wcs_tokenize_nothing(self, monkeypatch):
        made = []
        monkeypatch.setattr(harness, "prepare_sentences", lambda batch: made.append(batch))
        monkeypatch.setattr(harness, "prepare_text", lambda text: made.append(text))
        for aggregator in ("borda", "wcs"):
            assert summarize_cluster(fixture_config(), "c01-storm", aggregator)
        assert made == []


class TestSummarizeCluster:
    def test_returns_cluster_sentences(self):
        config = fixture_config()
        for aggregator in ("borda", "wcs", "cwcs", "oracle"):
            sentences = summarize_cluster(config, "c01-storm", aggregator)
            assert sentences
            raw = {s.strip() for s in sentences}
            assert all("." in s or s for s in raw)

    def test_missing_cluster(self):
        with pytest.raises(NoSuccessfulClustersError):
            summarize_cluster(fixture_config(), "nope", "borda")

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError):
            summarize_cluster(fixture_config(), "c01-storm", "magic")

    @pytest.mark.parametrize("cap", [None, 0.95])
    def test_agrees_with_run(self, cap):
        # summarize prints the summary that run scores: equal ROUGE-1 recall
        config = fixture_config(redundancy_cap=cap)
        report = run_evaluation(config)
        for cluster in load_corpus(FIXTURE, "jsonl"):
            references = [
                ngram_counts([prepare_text(r.text)], 1) for r in cluster.references
            ]
            # under a cap, summarize re-extracts the oracle's pick capped
            # while run scores it uncapped
            aggregators = config.aggregators if cap is None else ("borda", "wcs", "cwcs")
            for aggregator in aggregators:
                sentences = summarize_cluster(config, cluster.cluster_id, aggregator)
                counts = ngram_counts(prepare_sentences(sentences), 1)
                recall = rouge_n_recall(counts, references, 1).recall
                row = report.per_cluster[cluster.cluster_id][aggregator]
                assert recall == row["R-1"], (cluster.cluster_id, aggregator)

    @pytest.mark.parametrize("aggregator, calls", [
        ("borda", 1), ("wcs", 1), ("cwcs", 4), ("oracle", 4),
    ])
    def test_builds_only_what_the_aggregator_needs(self, monkeypatch, aggregator, calls):
        # one extraction for the printed summary, plus one per ranked
        # system where the aggregator reads the systems' own summaries
        made = []
        original = harness.extract_summary
        monkeypatch.setattr(
            harness, "extract_summary", lambda *a, **k: made.append(a) or original(*a, **k)
        )
        config = fixture_config(systems=("lexrank", "centroid", "freqsum"))
        assert summarize_cluster(config, "c01-storm", aggregator)
        assert len(made) == calls


class TestEmitReport:
    def test_csv_shape(self, tmp_path):
        config = fixture_config(systems=("lexrank", "centroid"), aggregators=())
        report = run_evaluation(config)
        path = emit_report(report, "csv", tmp_path / "report.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[0].split(",") == ["system", "R-1", "R-2", "R-4"]
        assert lines[1].startswith("lexrank,")

    def test_markdown_rows(self, tmp_path):
        config = fixture_config()
        report = run_evaluation(config)
        path = emit_report(report, "markdown", tmp_path / "report.md")
        text = path.read_text(encoding="utf-8")
        for unit in list(config.systems) + list(config.aggregators):
            assert f"| {unit} |" in text

    def test_json_round_trip(self, tmp_path):
        report = run_evaluation(fixture_config())
        path = emit_report(report, "json", tmp_path / "report.json")
        assert json.loads(path.read_text(encoding="utf-8")) == report.to_dict()

    def test_unknown_format(self, tmp_path):
        report = run_evaluation(fixture_config())
        with pytest.raises(ValueError):
            emit_report(report, "yaml", tmp_path / "x")

    def test_empty_report(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(EvalReport(), "csv", tmp_path / "x.csv")

    def test_unwritable_path(self, tmp_path):
        report = run_evaluation(fixture_config())
        with pytest.raises(OSError):
            emit_report(report, "csv", tmp_path / "missing-dir" / "x.csv")
