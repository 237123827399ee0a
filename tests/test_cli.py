import json
from pathlib import Path

import pytest

from summ.cli import _SETTINGS, UsageError, _flag, _parse, _run_config, _values, main
from summ.harness import RunConfig

from reference.fixture import FIXTURE, make_record, run_python, solo_record, write_jsonl


def config_of(argv):
    """The RunConfig that ``summ run`` builds from ``argv``."""
    return _run_config(_values(*_parse(argv)))


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

    def test_lambda_is_checked_before_the_corpus_is_read(self, tmp_path, capsys):
        code = main([
            "run", "--corpus", str(tmp_path / "missing.jsonl"),
            "--out", str(tmp_path / "x.csv"), "--lambda", "1",
        ])
        assert code == 1
        assert "lambda must lie in [0, 1)" in capsys.readouterr().err

    def test_no_references_is_exit_three(self, tmp_path):
        corpus = tmp_path / "bare.jsonl"
        write_jsonl(corpus, [make_record(texts=("Plain words sit here quietly.",))])
        code = main([
            "run", "--corpus", str(corpus), "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    def test_long_y_run_does_not_crash(self, tmp_path):
        # a y's class depends on the letter before it, so a 1 500-letter
        # run of y once exhausted the recursion limit while loading
        corpus = tmp_path / "yyy.jsonl"
        write_jsonl(corpus, [make_record(texts=(
            "The storm hit the coast. Crews fixed the lines.",
            f"Crews heard {'y' * 1500} all night. Roads flooded.",
        ), references=[("A", "A storm hit the coast.")])])
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

    def test_overlong_integer_config_is_usage_error(self, tmp_path, capsys):
        # json.loads raises a plain ValueError past Python's int digit limit
        config = tmp_path / "run.json"
        config.write_text('{"jobs": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: config file {config}: invalid JSON (" in err

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

    def test_unknown_emit_format_in_config_file_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # argparse checks --emit's choices; a file's value is checked
        # before the corpus is read
        def no_run(config):
            raise AssertionError("the run started")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("summ.cli.run_evaluation", no_run)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": FIXTURE, "out": "report.xml", "emit": "xml"}),
                          encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "usage error: emit must be one of ('csv', 'markdown', 'json')" in err
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

    def test_unset_settings_take_the_config_classes_defaults(self):
        assert config_of(["run", "--corpus", FIXTURE]) == RunConfig(corpus=FIXTURE)

    def test_lambda_from_flag_and_config_file(self, tmp_path):
        want = RunConfig(corpus=FIXTURE, lambda_=0.25)
        assert config_of(["run", "--corpus", FIXTURE, "--lambda", "0.25"]) == want
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"lambda": 0.25}), encoding="utf-8")
        assert config_of(["run", "--corpus", FIXTURE, "--config", str(config)]) == want

    def test_readme_flags_give_the_defaults_report(self, tmp_path):
        # README's run command spells out every default
        readme = tmp_path / "readme.json"
        assert main([
            "run", "--corpus", FIXTURE, "--format", "jsonl", "--budget", "words:100",
            "--systems", "lexrank,textrank,centroid,freqsum,topicsum,greedykl",
            "--aggregators", "borda,wcs,cwcs,oracle", "--lambda", "0.5", "--rouge", "1,2,4",
            "--out", str(readme), "--emit", "json", "--jobs", "1",
        ]) == 0
        defaults = tmp_path / "defaults.json"
        assert main(["run", "--corpus", FIXTURE, "--out", str(defaults), "--emit", "json"]) == 0
        assert defaults.read_bytes() == readme.read_bytes()

    @pytest.mark.parametrize("flags", [(), ("--budget", "bytes:665", "--redundancy-cap", "0.95")],
                             ids=["uncapped", "capped"])
    def test_duc_dir_copy_of_the_fixture_gives_the_jsonl_report(self, tmp_path, flags):
        # each document and reference as a file, whose sorted names keep
        # the fixture's order
        for line in Path(FIXTURE).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            for folder, entries, name in (("docs", record["documents"], "id"),
                                          ("models", record["references"], "author")):
                (tmp_path / "duc" / record["cluster_id"] / folder).mkdir(parents=True)
                for entry in entries:
                    path = tmp_path / "duc" / record["cluster_id"] / folder / f"{entry[name]}.txt"
                    path.write_text(entry["text"], encoding="utf-8")
        reports = []
        for corpus, format in ((FIXTURE, "jsonl"), (tmp_path / "duc", "duc-dir")):
            out = tmp_path / f"{format}.json"
            assert main(["run", "--corpus", str(corpus), "--format", format,
                         "--emit", "json", "--out", str(out), *flags]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


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
        # valid JSON that escapes a lone surrogate, which no UTF-8 text holds
        pytest.param(json.dumps({"cluster_id": "c04-bad", "documents": [
            {"id": "d0", "text": "Hurricane Marlow \ud800 struck"}]}),
            "{source}: malformed record (lone surrogate in a string)", id="lone-surrogate"),
        # an integer past Python's int digit limit
        pytest.param('{"cluster_id": "c04-bad", "documents": [], "pages": ' + "1" * 5000 + "}",
                     "{source}: invalid JSON ({reason})", id="overlong-integer"),
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
        except ValueError as exc:
            reason = str(exc)
        code = main([
            "summarize", "--corpus", str(corpus), "--cluster", "c01-storm",
            "--aggregator", "cwcs",
        ])
        assert code == 2
        expected = message.format(source=f"{corpus}:4", reason=reason)
        assert capsys.readouterr().err == f"data error: {expected}\n"

    def _one_cluster(self, tmp_path, references=True):
        corpus = tmp_path / "solo.jsonl"
        write_jsonl(corpus, [solo_record(references)])
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


# one value a flag or a config file can give for each setting but --config,
# as JSON would hold it; a flag gives its str()
SAMPLE_SETTINGS = {
    "corpus": FIXTURE, "format": "jsonl", "budget": "words:50", "systems": "lexrank,centroid",
    "lambda": 0.25, "redundancy-cap": 0.9, "aggregators": "borda", "rouge": "1,2", "jobs": 2,
    "out": "report.json", "emit": "json", "cluster": "c01-storm", "aggregator": "borda",
}


def test_config_file_keys_are_the_flags(tmp_path):
    # every flag but --config is accepted from a config file too, under its
    # own name with "_" for "-", and gives the flag's value
    assert set(SAMPLE_SETTINGS) == set(_SETTINGS) - {"config"}
    config = tmp_path / "both.json"
    config.write_text(json.dumps({
        name.replace("-", "_"): value for name, value in SAMPLE_SETTINGS.items()
    }), encoding="utf-8")
    for command in ("run", "summarize"):
        flags = [command]
        for name, (commands, *_) in _SETTINGS.items():
            if command in commands and name != "config":
                flags += [f"--{name}", str(SAMPLE_SETTINGS[name])]
        from_flags = _values(*_parse(flags))
        from_file = _values(*_parse([command, "--config", str(config)]))
        assert from_file.pop("config") == str(config)
        assert from_file == from_flags
        assert len(from_flags) == len(flags) // 2


class TestFlagGrammar:
    @pytest.mark.parametrize("flag, value", [
        ("format", "duc-dir"), ("budget", "bytes:665"), ("systems", "lexrank,centroid"),
        ("lambda", "0.25"), ("redundancy-cap", "0.9"), ("aggregators", "borda"),
        ("rouge", "1,2"), ("jobs", "3"), ("corpus", "a=b.jsonl"),
    ])
    def test_equals_form_gives_the_space_forms_config(self, flag, value):
        spaced = ["run", "--corpus", FIXTURE, f"--{flag}", value]
        assert _parse(["run", "--corpus", FIXTURE, f"--{flag}={value}"]) == _parse(spaced)
        if flag == "jobs":  # read by the command, not a RunConfig field
            assert _parse(spaced)[1]["jobs"] == 3
        else:
            assert config_of(spaced) != RunConfig(corpus=FIXTURE)

    def test_a_unique_prefix_names_its_flag(self):
        assert config_of(["run", "--corp", FIXTURE, "--agg", "borda", "--redun=0.5"]) == (
            RunConfig(corpus=FIXTURE, aggregators=("borda",), redundancy_cap=0.5))
        # in run, --aggregator is a prefix of --aggregators
        assert _parse(["run", "--aggregator", "wcs"]) == ("run", {"aggregators": ("wcs",)})
        assert _parse(["summarize", "--aggregator", "wcs"]) == (
            "summarize", {"aggregator": "wcs"})

    def test_an_exact_name_wins_over_a_longer_one(self):
        assert _flag("--out", ["outline", "out"]) == "out"
        assert _flag("--ou", ["outline", "hour"]) == "outline"

    @pytest.mark.parametrize("argv, message", [
        (["run", "--c", "x"], "ambiguous flag --c: could be --corpus, --config"),
        (["run", "--r=1"], "ambiguous flag --r: could be --redundancy-cap, --rouge"),
        (["summarize", "--c", "x"], "ambiguous flag --c: could be --corpus, --config, --cluster"),
    ])
    def test_an_ambiguous_prefix_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(UsageError, match=message):
            _parse(argv)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_the_last_repeat_wins(self):
        assert config_of([
            "run", "--corpus", "first.jsonl", "--lambda", "0.9", "--corpus", FIXTURE,
            "--lambda=0.25", "--budget", "words:10", "--budget", "words:100",
        ]) == RunConfig(corpus=FIXTURE, lambda_=0.25)

    @pytest.mark.parametrize("argv, message", [
        ([], "no command"),
        (["bogus"], "unknown command 'bogus'"),
        (["--corpus", FIXTURE], "unknown flag --corpus"),
        (["run", "--bogus", "x"], "unknown flag --bogus"),
        (["run", "--corpus", FIXTURE, "--cluster", "c01-storm"], "unknown flag --cluster"),
        (["summarize", "--corpus", FIXTURE, "--out", "x.csv"], "unknown flag --out"),
        (["run", "--corpus", FIXTURE, "--out"], "--out needs a value"),
        (["run", "--corpus", "--out", "x.csv"], "--corpus needs a value"),
        (["run", "--corpus", FIXTURE, "--lambda", "half"], "lambda: could not convert"),
        (["run", "--corpus", FIXTURE, "--jobs", "2.5"], "jobs: invalid literal for int()"),
        (["run", "--corpus", FIXTURE, "--budget=pages:3"], "budget: budget kind must be one of"),
        (["run", "--corpus", FIXTURE, "--format", "xml"], "format must be one of"),
        (["run", "--corpus", FIXTURE, "--emit=xml"], "emit must be one of"),
        (["run", "--corpus", FIXTURE, "report.csv"], "unexpected argument 'report.csv'"),
        (["summarize", "-x", "--corpus", FIXTURE], "unexpected argument '-x'"),
        (["run", "--corpus", FIXTURE, "--rouge", "1,x"], "--rouge must be integers"),
        (["run", "--corpus", FIXTURE], "--out is required"),
        (["run", "--corpus", FIXTURE, "--jobs", "0", "--out", "x.csv"], "jobs must be >= 1"),
        (["run", "--corpus", FIXTURE, "--config", "jobs0.json", "--out", "x.csv"],
         "jobs must be >= 1"),
    ])
    def test_usage_errors_exit_one(self, argv, message, tmp_path, monkeypatch, capsys):
        def no_run(*args):
            raise AssertionError("the command started")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "jobs0.json").write_text('{"jobs": 0}', encoding="utf-8")
        monkeypatch.setattr("summ.cli.run_evaluation", no_run)
        monkeypatch.setattr("summ.cli.summarize_cluster", no_run)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {message}")
        assert err.count("\n") == 1

    def test_a_config_file_that_is_not_an_object_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text('["corpus"]', encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: config file {config}: expected a JSON object\n")

    def test_a_config_path_that_is_a_directory_is_a_data_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("data error: config file: ")

    def test_a_config_files_list_gives_the_flags_tuple(self, tmp_path):
        config = tmp_path / "systems.json"
        config.write_text('{"systems": ["lexrank", "textrank"]}', encoding="utf-8")
        argv = ["run", "--corpus", FIXTURE, "--config", str(config)]
        assert config_of(argv).systems == ("lexrank", "textrank")

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], ["--he"], ["-h", "run"],
        ["run", "--help"], ["run", "--corpus", FIXTURE, "-h"],
        ["summarize", "--help"], ["summarize", "--h"], ["summarize", "--help=yes"],
    ])
    def test_help_exits_zero_and_lists_each_flag(self, argv, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        command = argv[0] if argv[0] in ("run", "summarize") else None
        assert out.startswith(f"usage: summ {command or '{run,summarize}'} ")
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        if command is None:
            assert listed == ["run", "summarize"]
        else:
            assert listed == [
                f"--{name}" for name, (commands, *_) in _SETTINGS.items() if command in commands]


def test_run_and_summarize_never_import_numpy_ma(tmp_path):
    # numpy 2.4's np.unique without return_index, return_inverse or
    # return_counts imports numpy.ma, at a cost in memory and start-up time;
    # csv is imported only by a csv report, which neither of these writes;
    # and no value class is a dataclass, whose methods are compiled at import
    script = "\n".join([
        "import sys",
        "from summ.cli import main",
        f"assert main({run_args(tmp_path / 'report.json', 'json')!r}) == 0",
        f"assert main(['summarize', '--corpus', {FIXTURE!r}, '--cluster', 'c01-storm']) == 0",
        "print('numpy.ma' in sys.modules)",
        "print('csv' in sys.modules)",
        "print('dataclasses' in sys.modules)",
    ])
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-3:] == ["False", "False", "False"]


def test_warning_reaches_stderr_in_the_cli_form():
    # a budget that fits no sentence warns once for the printed summary;
    # the CLI prints the warning as "WARNING <message>" and still exits 0
    done = run_python("-m", "summ.cli", "summarize", "--corpus", FIXTURE,
                      "--cluster", "c01-storm", "--budget", "words:1")
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    # the cwcs peers' empty summaries do not repeat it
    assert lines == [
        "WARNING budget words:1 fits no sentence of cluster c01-storm; summary is empty"]


@pytest.mark.parametrize("cap", [[], ["--redundancy-cap", "0.95"]], ids=["uncapped", "capped"])
def test_the_report_does_not_depend_on_the_string_hash_seed(tmp_path, cap):
    # sets and dicts of strings iterate in an order PYTHONHASHSEED picks
    # per process; no report byte may follow it
    reports = []
    for seed in ("0", "12345"):
        out = tmp_path / f"hash{seed}.json"
        done = run_python("-m", "summ.cli", "run", "--corpus", FIXTURE, *cap,
                          "--emit", "json", "--out", str(out), PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
