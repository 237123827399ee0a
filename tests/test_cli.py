import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from summ.cli import main

FIXTURE = str(Path(__file__).parent / "data" / "fixture.jsonl")


def run_args(out, emit="csv", extra=()):
    return [
        "run", "--corpus", FIXTURE, "--format", "jsonl",
        "--budget", "words:50", "--out", str(out), "--emit", emit, *extra,
    ]


class TestRunCommand:
    def test_writes_csv_report(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(run_args(out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",")[0] == "system"
        assert len(lines) == 11  # header + 6 systems + 4 aggregators

    def test_json_report_and_subsets(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(run_args(out, "json", [
            "--systems", "lexrank,centroid,freqsum",
            "--aggregators", "borda",
            "--rouge", "1,2",
        ]))
        assert code == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert sorted(data["averages"]) == ["borda", "centroid", "freqsum", "lexrank"]
        assert sorted(data["averages"]["borda"]) == ["R-1", "R-2"]

    def test_jobs_flag_identical_output(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(run_args(first, "json", ["--jobs", "1"])) == 0
        assert main(run_args(second, "json", ["--jobs", "4"])) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_missing_corpus_flag_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        assert main(run_args(tmp_path / "x.csv", extra=["--lambda", "2.0"])) == 1
        assert main(run_args(tmp_path / "x.csv", extra=["--budget", "pages:3"])) == 1

    def test_nonexistent_corpus_is_data_error(self, tmp_path, capsys):
        code = main([
            "run", "--corpus", str(tmp_path / "missing.jsonl"),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_no_references_is_exit_three(self, tmp_path):
        corpus = tmp_path / "bare.jsonl"
        corpus.write_text(json.dumps({
            "cluster_id": "c1",
            "documents": [{"id": "d0", "text": "Plain words sit here quietly."}],
        }) + "\n", encoding="utf-8")
        code = main([
            "run", "--corpus", str(corpus), "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    def test_long_y_run_does_not_crash(self, tmp_path):
        # a y's class depends on the letter before it, so a 1 500-letter
        # run of y once exhausted the recursion limit while loading
        corpus = tmp_path / "yyy.jsonl"
        corpus.write_text(json.dumps({
            "cluster_id": "c1",
            "documents": [
                {"id": "d0", "text": "The storm hit the coast. Crews fixed the lines."},
                {"id": "d1", "text": f"Crews heard {'y' * 1500} all night. Roads flooded."},
            ],
            "references": [{"author": "A", "text": "A storm hit the coast."}],
        }) + "\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        assert main(["run", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("system,")

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        out = tmp_path / "report.md"
        config.write_text(json.dumps({
            "corpus": FIXTURE,
            "format": "jsonl",
            "budget": "words:50",
            "systems": "lexrank,centroid",
            "aggregators": "borda",
            "emit": "json",
            "out": str(out),
        }), encoding="utf-8")
        # --emit overrides the file's json; everything else comes from it
        assert main(["run", "--config", str(config), "--emit", "markdown"]) == 0
        assert out.read_text(encoding="utf-8").startswith("| System |")

    def test_deeply_nested_corpus_line_is_data_error(self, tmp_path, capsys):
        # the json decoder recurses once per bracket
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text("[" * 100_000 + "\n", encoding="utf-8")
        assert main(["run", "--corpus", str(corpus), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"data error: {corpus}:1: invalid JSON" in err
        assert "Traceback" not in err

    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("[" * 100_000, encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: config file {config}: invalid JSON" in err
        assert "Traceback" not in err

    def test_redundancy_cap_outside_unit_interval_is_usage_error(self, tmp_path, capsys):
        # nan compares false with every similarity, so it used to drop the
        # cap silently; a negative cap kept one sentence per summary
        for cap in ("nan", "inf", "-0.5", "1.5"):
            out = tmp_path / "x.csv"
            assert main(run_args(out, extra=["--redundancy-cap", cap])) == 1, cap
            assert "redundancy cap must lie in [0, 1]" in capsys.readouterr().err
            assert not out.exists()
        for cap in ("0", "1"):
            assert main(run_args(tmp_path / f"{cap}.csv", extra=["--redundancy-cap", cap])) == 0

    def test_redundancy_cap_from_config_file_is_checked(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": FIXTURE, "redundancy_cap": float("nan")}),
                          encoding="utf-8")
        assert main(["summarize", "--config", str(config), "--cluster", "c01-storm"]) == 1
        assert "redundancy cap" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("lambda", None),
        ("lambda", [1]),
        ("jobs", None),
        ("jobs", 2.9),
        ("jobs", True),
        ("corpus", 5),
        ("out", 5),
    ])
    def test_config_value_of_wrong_type_is_usage_error(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        # these crashed with a TypeError (out only after the whole run), or
        # were silently truncated (jobs 2.9)
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.json"
        settings = {"corpus": FIXTURE, "out": "report.csv", key: value}
        config.write_text(json.dumps(settings), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: config file: {key!r} must be" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [config]

    def test_unknown_config_key_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # both keys were dropped without a word: the run wrote a report with
        # no cap (2.5 is out of range under the right key) and one job
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus": FIXTURE, "out": "report.csv", "redundancy-cap": 2.5, "job": 3,
        }), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: config file {config}: unknown keys ['job', 'redundancy-cap']" in err
        assert list(tmp_path.iterdir()) == [config]
        # summarize's keys are allowed, so one file serves both commands
        config.write_text(json.dumps({
            "corpus": FIXTURE, "out": "report.csv", "cluster": "c01-storm",
            "aggregator": "borda",
        }), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 0
        assert main(["summarize", "--config", str(config)]) == 0

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["run", "--help"]) == 0


class TestSummarizeCommand:
    def test_prints_summary(self, capsys):
        code = main([
            "summarize", "--corpus", FIXTURE, "--cluster", "c01-storm",
            "--aggregator", "cwcs", "--budget", "words:30",
        ])
        assert code == 0
        output = capsys.readouterr().out.strip()
        assert output
        assert sum(len(line.split()) for line in output.splitlines()) <= 30

    def test_default_aggregator_is_cwcs(self, capsys):
        assert main(["summarize", "--corpus", FIXTURE, "--cluster", "c02-election"]) == 0
        assert capsys.readouterr().out.strip()

    def test_one_system_is_enough_for_borda(self, capsys):
        # validated for the aggregator summarize runs, not run's defaults
        code = main([
            "summarize", "--corpus", FIXTURE, "--cluster", "c01-storm",
            "--systems", "lexrank", "--aggregator", "borda",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_missing_cluster_flag(self, capsys):
        assert main(["summarize", "--corpus", FIXTURE]) == 1

    def test_unknown_cluster_is_exit_three(self):
        assert main(["summarize", "--corpus", FIXTURE, "--cluster", "zzz"]) == 3

    @pytest.mark.parametrize("bad_line, message", [
        (json.dumps({"cluster_id": "c04-bad", "documents": [
            {"id": "d0", "text": "Fine text."}, {"id": "d1", "text": " \t "}]}),
         "{source}: empty document 'd1'"),
        (json.dumps({"cluster_id": "c04-bad", "documents": [
            {"id": "d0", "text": "One text."}, {"id": "d0", "text": "Two text."}]}),
         "cluster 'c04-bad': duplicate document ids"),
        (json.dumps({"cluster_id": "c04-bad",
                     "documents": [{"id": "d0", "text": "Fine text."}],
                     "references": [{"author": "A", "text": "\n"}]}),
         "cluster 'c04-bad': reference summary text must be non-empty"),
        ('{"cluster_id": "c04-bad", "documents": [', "{source}: invalid JSON ({reason})"),
    ])
    def test_other_malformed_cluster_is_data_error(self, tmp_path, capsys, bad_line, message):
        # summarize builds one cluster but still reads and checks them all
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            Path(FIXTURE).read_text(encoding="utf-8") + bad_line + "\n", encoding="utf-8"
        )
        try:
            json.loads(bad_line)
            reason = None
        except json.JSONDecodeError as exc:
            reason = exc.msg
        code = main([
            "summarize", "--corpus", str(corpus), "--cluster", "c01-storm",
            "--aggregator", "cwcs",
        ])
        assert code == 2
        expected = message.format(source=f"{corpus}:4", reason=reason)
        assert capsys.readouterr().err == f"data error: {expected}\n"

    def _one_cluster(self, tmp_path, references=True):
        record = {
            "cluster_id": "solo",
            "documents": [
                {"id": "d0", "text": "The storm hit the coast. Crews fixed the lines."},
                {"id": "d1", "text": "The storm flooded roads. Crews worked all night."},
            ],
        }
        if references:
            record["references"] = [{"author": "A", "text": "A storm hit the coast."}]
        corpus = tmp_path / "solo.jsonl"
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        return str(corpus)

    # topicsum needs other clusters as its background, so on a one-cluster
    # corpus only lexrank ranks: too few systems for wcs and cwcs
    def test_wcs_with_one_ranked_system_is_exit_three(self, tmp_path, capsys):
        code = main([
            "summarize", "--corpus", self._one_cluster(tmp_path), "--cluster", "solo",
            "--systems", "lexrank,topicsum", "--aggregator", "wcs",
        ])
        assert code == 3
        assert "weighted consensus needs at least two rank lists" in capsys.readouterr().err

    def test_cwcs_with_one_ranked_system_is_exit_three(self, tmp_path, capsys):
        code = main([
            "summarize", "--corpus", self._one_cluster(tmp_path), "--cluster", "solo",
            "--systems", "lexrank,topicsum", "--aggregator", "cwcs",
        ])
        assert code == 3
        assert "peers required" in capsys.readouterr().err

    def test_oracle_without_references_is_exit_three(self, tmp_path, capsys):
        code = main([
            "summarize", "--corpus", self._one_cluster(tmp_path, references=False),
            "--cluster", "solo", "--systems", "lexrank,centroid", "--aggregator", "oracle",
        ])
        assert code == 3
        assert "oracle requires reference summaries" in capsys.readouterr().err


def test_run_and_summarize_never_import_numpy_ma(tmp_path):
    # numpy 2.4's np.unique without return_index, return_inverse or
    # return_counts imports numpy.ma, at a cost in memory and start-up time
    script = "\n".join([
        "import sys",
        "from summ.cli import main",
        f"assert main({run_args(tmp_path / 'report.json', 'json')!r}) == 0",
        f"assert main(['summarize', '--corpus', {FIXTURE!r}, '--cluster', 'c01-storm']) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
