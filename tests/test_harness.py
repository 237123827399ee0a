import json
import math
import pickle
import random
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summ import consensus, harness, summarizers
from summ.cli import main
from summ.corpus import (
    ClusterRecord,
    Document,
    DocumentCluster,
    ReferenceSummary,
    Sentence,
    build_cluster,
    load_corpus,
    read_corpus,
    tokenize,
    words,
)
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
from summ.rouge import prepare_sentences, prepare_text, rouge_n_recall
from summ.stopwords import STOPWORDS
from summ.summarizers import CANDIDATE_SYSTEMS, LengthBudget, RankList

from reference.corpus import corpus_counts, document_counts, sentence_counts
from reference.fixture import FIXTURE, fixture_config, make_record, solo_record, write_jsonl
from reference.rouge import ngram_counts

# document text with every kind of sentence boundary and non-boundary:
# abbreviations, initials, blank lines, quotes or brackets after a
# period, tabs, and the Unicode spaces U+00A0 and U+3000
DOC_PIECES = st.one_of(
    st.sampled_from([
        " ", "\n", "\n\n", "\n \n", "\t", "\u00a0", "\u3000", ".", ". ", '."', ".'",
        ".)", ".]", '" ', "(", "[", "!", "?", "Mr.", "Dr. ", "u.s.", "e.g.", "J.",
        "J. R.", "Jan.", "3.5", "No. 4", "The", "storm", "was", "and", "Running",
        "bate", "bated", "happy", "happiness", "conditional", "condition", "1990s",
    ]),
    st.text(max_size=4),
)
DOC_TEXTS = st.lists(DOC_PIECES, min_size=1, max_size=30).map("".join).filter(str.strip)
CORPORA = st.lists(st.lists(DOC_TEXTS, min_size=1, max_size=3), min_size=1, max_size=3)


def corpus_records(corpus):
    """One reference-less record per list of document texts."""
    return [
        ClusterRecord(
            cluster_id=f"c{c}",
            documents=tuple(Document(f"d{i}", t) for i, t in enumerate(texts)),
            references=(),
        )
        for c, texts in enumerate(corpus)
    ]


def assert_cluster_counts_exact(records):
    """``summarize_cluster``'s corpus counts equal the whole corpus's at
    every token of each cluster, and so does their total."""
    full = document_counts(records)
    for record in records:
        cluster = build_cluster(record)
        corpus = harness._cluster_corpus_counts(records, cluster)
        assert corpus.total == full.total()
        tokens = {t for s in cluster.sentences for t in s.tokens}
        assert {t: corpus.counts.get(t, 0) for t in tokens} == {t: full[t] for t in tokens}


def content_words(text):
    """The surface words less the stopwords, as summarize counts its
    corpus total."""
    return [w for w in words(text) if w not in STOPWORDS]


# each count the package takes of a text: run's tokens, which a built
# sentence keeps (so its sentence pipeline is None), the surface words,
# ROUGE's stemmed words and summarize's corpus total
COUNT_CONFIGS = (
    (tokenize, None), (words, words), (prepare_text, prepare_text),
    (content_words, content_words),
)


class TestCorpusCounts:
    # each count of the documents is that of their sentences
    @settings(max_examples=150, deadline=None)
    @given(CORPORA, st.sampled_from(COUNT_CONFIGS))
    def test_documents_count_as_their_sentences(self, corpus, config):
        records = corpus_records(corpus)
        clusters = [build_cluster(r) for r in records]
        pipeline, sentence_pipeline = config
        assert document_counts(records, pipeline) == sentence_counts(clusters, sentence_pipeline)

    @pytest.mark.parametrize("config", COUNT_CONFIGS)
    def test_fixture(self, config):
        clusters = load_corpus(FIXTURE, "jsonl")
        pipeline, sentence_pipeline = config
        counts = document_counts(read_corpus(FIXTURE, "jsonl"), pipeline)
        assert counts == sentence_counts(clusters, sentence_pipeline)

    @pytest.mark.parametrize("systems", [CANDIDATE_SYSTEMS, ("lexrank", "textrank")])
    def test_run_counts_the_corpus_only_for_topicsum(self, monkeypatch, systems):
        # topicsum's corpus counts are every sentence's tokens
        corpora, evaluate = [], harness._evaluate_cluster
        monkeypatch.setattr(
            harness, "_evaluate_cluster", lambda *a: corpora.append(a[1]) or evaluate(*a)
        )
        run_evaluation(fixture_config(systems=systems))
        want = corpus_counts(load_corpus(FIXTURE, "jsonl")) if "topicsum" in systems else None
        assert corpora == [want] * 3

    @settings(max_examples=150, deadline=None)
    @given(CORPORA)
    def test_summarize_counts_match_on_generated_corpora(self, corpus):
        assert_cluster_counts_exact(corpus_records(corpus))

    def test_summarize_counts_match_on_fixture(self):
        assert_cluster_counts_exact(read_corpus(FIXTURE, "jsonl"))

    @pytest.mark.parametrize("corpus", [
        # tokens of two letters or fewer, which the stemmer leaves alone
        [["an ox is at Go, ox oxen."], ["Ox go oxes at it, a b c."]],
        # digit tokens, bare and with letters
        [["In 1990 the 1990s ended 747 jets in 19 runs."], ["1990 1990s 7 747s 19th"]],
        # bate's only core is "b" (tail "ate"), so every b-word is stemmed
        [["Bate bate."], ["bated bating bates bat bait baiting bats able b"]],
        # uppercase words, which are lowercased before they are stemmed
        [["RUNNING Running running RUNS."], ["Runs runner RUNNING running Run"]],
        # tails cut short: -tion by step 4, an appended i and e
        [["Conditional happiness hoping."], ["condition conditions happy hope hoped"]],
    ])
    def test_summarize_counts_match_on_edge_tokens(self, corpus):
        assert_cluster_counts_exact(corpus_records(corpus))


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


# two storm documents and a reference to score them against
STORM = ("Storm flooded the coast. Rescue teams arrived.",
         "The storm cut power. Crews repaired lines.")
STORM_REFERENCE = [("A", "Storm flooded the coast and cut power.")]


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

    def test_verbatim_reference_gives_oracle_recall_one(self, tmp_path):
        text = "Storm rescue teams saved families from flooded homes overnight."
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [make_record("only", (text, "Ok go."), [("A", text)])])
        report = run_evaluation(fixture_config(corpus=path))
        assert report.averages["oracle"]["R-1"] == 1.0
        # a single-cluster corpus leaves topicsum no background
        assert "background required" in report.failures["only"]["topicsum"]

    def test_disabling_aggregators_leaves_candidate_rows(self):
        config = fixture_config(aggregators=())
        report = run_evaluation(config)
        assert list(report.averages) == list(config.systems)

    def test_cluster_without_references_excluded(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            make_record("scored", STORM, STORM_REFERENCE),
            make_record("unscored", ("Voters picked a mayor. The race was close.",
                                     "The mayor promised transit fixes.")),
        ])
        report = run_evaluation(fixture_config(corpus=path))
        assert set(report.per_cluster) == {"scored"}
        assert report.stats["unscored_clusters"] == ["unscored"]
        assert report.stats["clusters_total"] == 2

    def test_no_references_anywhere_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [make_record(texts=("Words fill the page here.",))])
        with pytest.raises(NoSuccessfulClustersError):
            run_evaluation(fixture_config(corpus=path))

    def test_every_cluster_runs_on_the_calling_thread(self, monkeypatch):
        # the benchmark's worker times clusters by wrapping _evaluate_cluster
        # and samples with SIGALRM, both of which need the main thread
        threads = []
        evaluate = harness._evaluate_cluster

        def recording(*args):
            threads.append(threading.get_ident())
            return evaluate(*args)

        monkeypatch.setattr(harness, "_evaluate_cluster", recording)
        run_evaluation(fixture_config())
        assert threads == [threading.get_ident()] * 3

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

    def test_stats_use_the_first_rouge_order(self):
        # true_rouge1_means keeps its name, but with --rouge 2,4 it holds
        # R-2 means, and the taus and sign tests use R-2 too
        report = run_evaluation(fixture_config(rouge_orders=(2, 4)))
        stats = report.stats
        assert set(stats["true_rouge1_means"]) == set(fixture_config().systems)
        for system, mean in stats["true_rouge1_means"].items():
            assert mean == report.averages[system]["R-2"]
        # R-2, not R-1: the default orders' stats hold another mean
        r1_means = run_evaluation(fixture_config()).stats["true_rouge1_means"]
        assert stats["true_rouge1_means"]["lexrank"] != r1_means["lexrank"]
        rows = list(report.per_cluster.values())
        for key, result in stats["sign_tests"].items():
            unit = key.removeprefix("cwcs_vs_")
            want = sign_test([r["cwcs"]["R-2"] for r in rows], [r[unit]["R-2"] for r in rows])
            assert result == {
                "p_value": want.p_value, "wins_a": want.wins_a,
                "wins_b": want.wins_b, "ties": want.ties,
            }
        assert run_evaluation(fixture_config(rouge_orders=(2,))).stats == stats
        r4_first = run_evaluation(fixture_config(rouge_orders=(4, 2))).stats
        assert r4_first["kendall_tau_per_cluster"] != stats["kendall_tau_per_cluster"]

    def test_config_validation(self):
        # each check fails with its own message
        cases = [
            ({"systems": ()}, "aggregators need candidate systems"),
            ({"systems": ("nosuch",)}, r"unknown systems: \['nosuch'\]"),
            ({"aggregators": ("magic",)}, r"unknown aggregators: \['magic'\]"),
            ({"systems": (), "aggregators": ()}, "enable at least one system or aggregator"),
            ({"systems": ("lexrank",), "aggregators": ("wcs",)},
             r"\['wcs'\] need at least two systems"),
            ({"rouge_orders": ()}, "rouge orders must be positive"),
            ({"systems": ("lexrank", "lexrank")}, "duplicate system names"),
            ({"aggregators": ("borda", "borda")}, "duplicate aggregator names"),
        ]
        for overrides, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                fixture_config(**overrides)

    def test_lambda_validation(self):
        assert fixture_config(lambda_=0.0).lambda_ == 0.0
        # a tiny lambda scales wcs's distances to 1e10, and wcs still scores
        assert run_evaluation(fixture_config(lambda_=1e-9)).failures == {}
        for lambda_ in (1.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\)"):
                fixture_config(lambda_=lambda_)

    def test_report_lists_clusters_in_id_order(self, tmp_path):
        # the loader's order: run_evaluation keeps the clusters as read
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            make_record("d-scored", STORM, STORM_REFERENCE), make_record("c-unscored", STORM),
            make_record("a-scored", STORM, STORM_REFERENCE), make_record("b-unscored", STORM),
        ])
        stats = run_evaluation(fixture_config(corpus=path)).stats
        assert stats["unscored_clusters"] == ["b-unscored", "c-unscored"]
        assert list(stats["duplicate_sentences"]) == [
            "a-scored", "b-unscored", "c-unscored", "d-scored"
        ]


def failing_for(cluster_id, function, error):
    """``function``, except that it raises ``error`` on the named cluster,
    which it reads off its ``ClusterFeatures`` argument."""
    def wrapped(*args):
        features = next(a for a in args if isinstance(a, summarizers.ClusterFeatures))
        if features.cluster.cluster_id == cluster_id:
            raise error
        return function(*args)
    return wrapped


class TestFailuresStayPerCluster:
    """The failure paths that the other tests never reach: each is
    recorded for its cluster and unit, and the rest of the run is scored
    as without it."""

    def test_a_cluster_that_raises_fails_only_itself(self, monkeypatch, caplog):
        config = fixture_config()
        clean = run_evaluation(config)
        assert clean.failures == {}
        monkeypatch.setattr(harness, "extract_summary", failing_for(
            "c03-probe", harness.extract_summary, MemoryError("no room"),
        ))
        report = run_evaluation(config)
        assert report.failures == {"c03-probe": {"cluster": "no room"}}
        assert "cluster c03-probe failed: no room" in caplog.text
        assert report.stats["unscored_clusters"] == ["c03-probe"]
        assert report.stats["clusters_scored"] == 2
        assert report.per_cluster == {
            c: row for c, row in clean.per_cluster.items() if c != "c03-probe"
        }

    def test_every_ranker_failing_fails_each_unit(self, monkeypatch):
        config = fixture_config()
        clean = run_evaluation(config)
        for name, rank in harness._RANKERS.items():
            monkeypatch.setitem(harness._RANKERS, name, failing_for(
                "c02-election", rank, ValueError(f"{name} broke"),
            ))
        monkeypatch.setattr(harness, "topicsum_rank", failing_for(
            "c02-election", harness.topicsum_rank, ValueError("topicsum broke"),
        ))
        report = run_evaluation(config)
        assert report.failures == {"c02-election": {
            **{s: f"{s} broke" for s in config.systems},
            **{a: "no candidate system succeeded" for a in config.aggregators},
        }}
        assert report.stats["unscored_clusters"] == ["c02-election"]
        assert report.per_cluster == {
            c: row for c, row in clean.per_cluster.items() if c != "c02-election"
        }

    def test_one_ranked_system_fails_wcs_and_cwcs_in_their_own_words(
        self, tmp_path, monkeypatch
    ):
        # topicsum needs other clusters as its background, so on a
        # one-cluster corpus only lexrank ranks
        corpus = tmp_path / "solo.jsonl"
        write_jsonl(corpus, [solo_record()])
        outcomes, evaluate = [], harness._evaluate_cluster

        def keep(*args):
            outcomes.append(evaluate(*args))
            return outcomes[-1]

        monkeypatch.setattr(harness, "_evaluate_cluster", keep)
        report = run_evaluation(RunConfig(corpus, systems=("lexrank", "topicsum")))
        failures = report.failures["solo"]
        assert failures["cwcs"] == "peers required: need at least two summaries"
        assert failures["wcs"] == "weighted consensus needs at least two rank lists"
        assert set(failures) == {"topicsum", "wcs", "cwcs"}
        assert set(report.per_cluster["solo"]) == {"lexrank", "borda", "oracle"}
        [outcome] = outcomes
        assert outcome.raw_weights == {}

    def test_empty_summaries_warn_once_per_cluster(self, caplog):
        config = fixture_config(budget=LengthBudget("words", 1))
        with caplog.at_level("WARNING"):
            run_evaluation(config)
        units = ", ".join((*config.systems, *config.aggregators))
        assert [(r.name, r.funcName, r.getMessage()) for r in caplog.records] == [
            ("summ.harness", "_evaluate_cluster",
             f"budget words:1 fits no sentence of cluster {c}; empty summaries: {units}")
            for c in ("c01-storm", "c02-election", "c03-probe")
        ]

    def test_an_order_no_reference_has_is_dropped_from_the_rows(self):
        report = run_evaluation(fixture_config(rouge_orders=(1, 60)))
        unigrams = run_evaluation(fixture_config(rouge_orders=(1,)))
        assert report.failures == {
            c: {"rouge-60": "no reference with n-grams of this order"}
            for c in ("c01-storm", "c02-election", "c03-probe")
        }
        # so every row keeps R-1 only
        assert report.per_cluster == unigrams.per_cluster
        assert report.averages == unigrams.averages


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
            outcome = harness._evaluate_cluster(cluster, corpus_counts(clusters), config)
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


class TestScoreOnce:
    @pytest.mark.parametrize("orders", [(1, 2, 4), (1, 1, 2)])
    def test_each_distinct_summary_scored_once_per_order(self, monkeypatch, orders):
        # the index caches one Counter per (order, unit), so the Counter a
        # score is given names the summary it scores; the oracle picks from
        # the same recalls, so no score goes through consensus's name either
        keys, scored = {}, []

        class Index(harness.NgramIndex):
            def counts(self, unit, n):
                counts = super().counts(unit, n)
                keys[id(counts)] = (n, unit)
                return counts

        for module in (harness, consensus):
            def counting(counts, references, n, original=module.rouge_n_recall):
                scored.append(keys[id(counts)])
                return original(counts, references, n)

            monkeypatch.setattr(module, "rouge_n_recall", counting)
        monkeypatch.setattr(harness, "NgramIndex", Index)
        config = fixture_config(rouge_orders=orders)
        clusters = load_corpus(FIXTURE, "jsonl")
        counts = corpus_counts(clusters)
        shared = 0
        for cluster in clusters:
            scored.clear()
            outcome = harness._evaluate_cluster(cluster, counts, config)
            # taken before summarize_cluster below scores its oracle's picks
            calls = Counter(scored)
            # the unmemoized loop: each unit's summary extracted and scored
            # on its own, from plain token-list counts
            units = {}
            features = summarizers.ClusterFeatures(cluster)
            for name in config.systems:
                rank_list = (
                    summarizers.topicsum_rank(features, counts)
                    if name == "topicsum"
                    else harness._RANKERS[name](features)
                )
                summary = summarizers.extract_summary(rank_list, features, config.budget)
                units[name] = tuple(
                    cluster.sentences[i].raw_text for i in summary.sentence_indices
                )
            for aggregator in config.aggregators:
                units[aggregator] = tuple(
                    summarize_cluster(config, cluster.cluster_id, aggregator)
                )
            assert outcome.scores.keys() == units.keys()
            for unit, texts in units.items():
                row = {}
                for n in orders:
                    references = [
                        ngram_counts([prepare_text(r.text)], n) for r in cluster.references
                    ]
                    candidate = ngram_counts(prepare_sentences(list(texts)), n)
                    row[f"R-{n}"] = rouge_n_recall(candidate, references, n).recall
                assert outcome.scores[unit] == row, (cluster.cluster_id, unit)
            distinct = {(n, texts) for n in orders for texts in units.values()}
            assert calls == Counter(distinct)
            shared += len(set(units.values())) < len(units)
        # the oracle's summary is its pick's on every cluster
        assert shared == len(clusters)


class TestFeaturesOnce:
    @pytest.mark.parametrize("systems, cap, expected", [
        (CANDIDATE_SYSTEMS, None, 1),
        (CANDIDATE_SYSTEMS, 0.5, 1),
        (("freqsum", "topicsum"), None, 0),
    ])
    def test_tfidf_vectors_built_once_per_cluster(self, monkeypatch, systems, cap, expected):
        # lexrank, centroid and the redundancy cap share one set of vectors;
        # rankers that need none build none
        built = []
        original = summarizers.tfidf_vectors
        monkeypatch.setattr(
            summarizers, "tfidf_vectors", lambda cluster: built.append(cluster) or original(cluster)
        )
        config = fixture_config(systems=systems, redundancy_cap=cap)
        clusters = load_corpus(FIXTURE, "jsonl")
        for cluster in clusters:
            built.clear()
            outcome = harness._evaluate_cluster(cluster, corpus_counts(clusters), config)
            assert outcome.scored
            assert len(built) == expected


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

    @pytest.mark.parametrize("cap", [None, 0.95])
    def test_prints_what_the_whole_corpus_path_printed(self, monkeypatch, capsys, cap):
        # the old path built every cluster and pooled their sentence tokens
        configs = []
        original = harness.summarize_cluster
        monkeypatch.setattr(
            "summ.cli.summarize_cluster",
            lambda config, *args: configs.append(config) or original(config, *args),
        )
        extra = [] if cap is None else ["--redundancy-cap", str(cap)]
        for cluster_id in ("c01-storm", "c02-election", "c03-probe"):
            for aggregator in ("borda", "wcs", "cwcs", "oracle"):
                code = main([
                    "summarize", "--corpus", str(FIXTURE), "--cluster", cluster_id,
                    "--aggregator", aggregator, *extra,
                ])
                assert code == 0
                config = configs.pop()
                clusters = load_corpus(FIXTURE, "jsonl")
                [cluster] = [c for c in clusters if c.cluster_id == cluster_id]
                pipeline = harness._ClusterPipeline(cluster, corpus_counts(clusters), config)
                summary = pipeline.extract(pipeline.fuse(aggregator)[0])
                expected = "".join(
                    cluster.sentences[i].raw_text + "\n" for i in summary.sentence_indices
                )
                assert expected
                assert capsys.readouterr().out == expected, (cluster_id, aggregator)

    def test_builds_only_the_requested_cluster(self, monkeypatch):
        built = []
        original = harness.build_cluster
        monkeypatch.setattr(
            harness, "build_cluster", lambda record: built.append(record.cluster_id)
            or original(record)
        )
        assert summarize_cluster(fixture_config(), "c02-election", "cwcs")
        assert built == ["c02-election"]

    @pytest.mark.parametrize("systems, calls", [
        (("lexrank", "textrank"), 0), (CANDIDATE_SYSTEMS, 1),
    ])
    def test_counts_the_corpus_only_for_topicsum(self, monkeypatch, systems, calls):
        made = []
        original = harness._cluster_corpus_counts
        monkeypatch.setattr(
            harness, "_cluster_corpus_counts", lambda *a: made.append(a) or original(*a)
        )
        assert summarize_cluster(fixture_config(systems=systems), "c01-storm", "borda")
        assert len(made) == calls

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

    def test_csv_columns_in_order_of_n(self, tmp_path):
        config = fixture_config(systems=("centroid",), aggregators=(), rouge_orders=(10, 1, 2))
        path = emit_report(run_evaluation(config), "csv", tmp_path / "report.csv")
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "system,R-1,R-2,R-10"

    def test_markdown_columns_in_order_of_n(self, tmp_path):
        config = fixture_config(systems=("centroid",), aggregators=(), rouge_orders=(10, 1, 2))
        path = emit_report(run_evaluation(config), "markdown", tmp_path / "report.md")
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "| System | R-1 | R-2 | R-10 |"

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


def test_loaded_corpus_config_counts_and_outcome_pickle():
    # what a process pool sends to its workers and gets back from them
    clusters = load_corpus(FIXTURE, "jsonl")
    config = fixture_config(redundancy_cap=0.95)
    counts = corpus_counts(clusters)
    outcome = harness._evaluate_cluster(clusters[0], counts, config)
    assert outcome.scored
    values = [*clusters, config, counts, outcome]
    copies = [pickle.loads(pickle.dumps(value)) for value in values]
    assert copies == values
    assert [type(c) for c in copies] == [type(v) for v in values]
    # a tuple record equals a plain tuple of its fields, so check the records' types
    records = [x for c in copies[:len(clusters)] for x in c.sentences + c.references]
    assert {type(x) for x in records} == {Sentence, ReferenceSummary}
    assert copies[-1].scored


def test_value_classes_compare_pickle_and_stay_frozen():
    # the five value classes: equality, pickling, frozen fields, RunConfig's
    # defaults on the class and a cluster's length
    cluster = load_corpus(FIXTURE, "jsonl")[0]
    pairs = [
        (cluster, DocumentCluster(cluster.cluster_id, cluster.sentences, cluster.references)),
        (LengthBudget("bytes", 665), LengthBudget(kind="bytes", limit=665)),
        (RankList.from_scores([0.5, 0.9, 0.5]), RankList((0.5, 0.9, 0.5))),
        (fixture_config(lambda_=0.25), fixture_config(lambda_=0.25)),
        (EvalReport({"c": {"borda": {"R-1": 0.5}}}, {"borda": {"R-1": 0.5}}, {"clusters": 1}),
         EvalReport({"c": {"borda": {"R-1": 0.5}}}, {"borda": {"R-1": 0.5}}, {"clusters": 1}, {})),
    ]
    # a derived order is not compared, nor does it block a pickle
    assert pairs[2][0].ranks == (2, 1, 3)
    for value, twin in pairs:
        assert value == twin and value is not twin
        assert pickle.loads(pickle.dumps(value)) == value
    assert LengthBudget("bytes", 665) != LengthBudget("words", 665)
    assert RankList((0.5,)) != RankList((0.25,))
    assert EvalReport() != EvalReport(stats={"clusters": 1})
    # nor does a value class equal a plain tuple, not even of its own scores
    assert RankList((0.5, 0.9)) != (0.5, 0.9) and (0.5, 0.9) != RankList((0.5, 0.9))
    frozen = [(cluster, "sentences"), (pairs[1][0], "limit"), (pairs[2][0], "scores"),
              (pairs[3][0], "lambda_")]
    frozen += [(pairs[4][0], name) for name in EvalReport._fields]
    for value, name in frozen:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    # RunConfig's defaults are read on the class
    assert (RunConfig.corpus_format, RunConfig.budget, RunConfig.lambda_) == (
        "jsonl", LengthBudget("words", 100), 0.5)
    assert (RunConfig.systems, RunConfig.aggregators, RunConfig.rouge_orders) == (
        CANDIDATE_SYSTEMS, consensus.AGGREGATORS, (1, 2, 4))
    assert RunConfig.redundancy_cap is None and "jobs" not in RunConfig._fields
    config = RunConfig(corpus=FIXTURE)
    for name in ("corpus_format", "budget", "lambda_", "systems", "aggregators",
                 "rouge_orders", "redundancy_cap"):
        assert getattr(config, name) is getattr(RunConfig, name)
    assert len(cluster) == len(cluster.sentences) > 0


README = Path(__file__).parent.parent / "README.md"


def test_readme_library_use_runs(tmp_path, monkeypatch):
    # README's "Library use" block, run as written from a checkout's root
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "tests" / "data").mkdir(parents=True)
    (tmp_path / "tests" / "data" / "fixture.jsonl").write_bytes(Path(FIXTURE).read_bytes())
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    report = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert report.startswith("| System | R-1 | R-2 | R-4 |\n")
    assert "| cwcs |" in report
