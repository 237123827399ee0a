"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import summ.cli  # noqa: E402
import summ.harness  # noqa: E402
from corpus_gen import CorpusShape, corpus_lines  # noqa: E402
from run import min_samples, report_problems, tail  # noqa: E402
from summ import duplicate_stats, load_corpus, segment_sentences  # noqa: E402
from tracing import Tracer, installed_wrappers, layer_metrics, self_times  # noqa: E402
from worker import Probe, _pass  # noqa: E402

SMALL = CorpusShape(clusters=3, docs=3, sentences=12, reference_words=60)


def _write(tmp_path: Path, seed: int = 7, shape: CorpusShape = SMALL) -> Path:
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(corpus_lines(seed, shape)) + "\n", encoding="utf-8")
    return path


def _run(corpus: Path, out: Path, jobs: int = 1, tracer: Tracer | None = None) -> float:
    """One CLI pass; returns its process CPU time."""
    argv = ["run", "--corpus", str(corpus), "--out", str(out), "--emit", "json",
            "--budget", "bytes:665", "--redundancy-cap", "0.95", "--jobs", str(jobs)]
    if tracer is not None:
        tracer.install()
    start = time.process_time()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            assert summ.cli.main(argv) == 0
    finally:
        cpu = time.process_time() - start
        if tracer is not None:
            tracer.restore()
    return cpu


def test_same_seed_gives_same_corpus_bytes():
    assert corpus_lines(7, SMALL) == corpus_lines(7, SMALL)
    assert corpus_lines(7, SMALL) != corpus_lines(8, SMALL)
    bigger = CorpusShape(clusters=4, docs=3, sentences=12, reference_words=60)
    assert corpus_lines(7, bigger)[:3] == corpus_lines(7, SMALL)


def test_corpus_has_the_stated_shape(tmp_path):
    records = [json.loads(line) for line in corpus_lines(7, SMALL)]
    for record in records:
        assert len(record["documents"]) == SMALL.docs
        assert len(record["references"]) == 4
        assert sum(len(segment_sentences(d["text"])) for d in record["documents"]) == 12
    clusters = load_corpus(_write(tmp_path), "jsonl")
    assert [len(c) for c in clusters] == [12, 12, 12]
    assert sum(duplicate_stats(c) for c in clusters) > 0


def test_traced_pass_gives_the_untraced_report_and_restores_every_name(tmp_path):
    corpus = _write(tmp_path)
    rankers = dict(summ.harness._RANKERS)
    originals = {name: getattr(summ.harness, name) for name in dir(summ.harness)}
    _run(corpus, tmp_path / "plain.json")
    tracer = Tracer()
    _run(corpus, tmp_path / "traced.json", tracer=tracer)

    digest = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
              for f in ("plain.json", "traced.json")]
    assert digest[0] == digest[1]
    assert installed_wrappers() == []
    assert summ.harness._RANKERS == rankers
    assert all(getattr(summ.harness, name) is fn for name, fn in originals.items())
    assert not hasattr(summ.cli, "print")
    names = {span["name"] for span in tracer.spans}
    assert {"corpus.load", "summarizers.greedykl", "consensus.wcs", "rouge.score",
            "rouge.pairwise", "features.tfidf", "harness.cluster", "cli.emit"} <= names
    assert tracer.counters["porter.stem_calls"] > 0


def test_untraced_pass_times_each_cluster_and_restores_the_harness(tmp_path):
    evaluate = summ.harness._evaluate_cluster
    out = tmp_path / "report.json"
    argv = ["run", "--corpus", str(_write(tmp_path)), "--out", str(out), "--emit", "json"]
    with contextlib.redirect_stderr(io.StringIO()):
        result = _pass(str(out), "-", argv)
    assert result["exit_code"] == 0
    assert len(result["cluster_walls_s"]) == 3
    assert 0 < sum(result["cluster_walls_s"]) < result["wall_s"]
    assert result["speed"] > 0
    assert summ.harness._evaluate_cluster is evaluate


def test_probe_samples_while_the_body_runs_and_then_disarms():
    handler = signal.getsignal(signal.SIGALRM)
    with Probe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(range(1000))
    # one sample on entry, one on exit, and several from the timer between
    assert len(probe.samples) >= 4
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert probe.speed > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


@pytest.mark.parametrize("jobs", [1, 2])
def test_self_times_sum_to_no_more_than_the_pass_cpu_time(tmp_path, jobs):
    tracer = Tracer()
    cpu = _run(_write(tmp_path), tmp_path / "report.json", jobs=jobs, tracer=tracer)
    own = self_times(tracer.spans)
    assert all(t >= 0 for t in own.values())
    # self times are thread CPU times, so with threads they still add up to
    # no more than the CPU time of the whole process
    assert sum(own.values()) <= cpu
    clusters = {s["cluster"] for s in tracer.spans if s["name"] == "harness.cluster"}
    assert len(clusters) == 3
    assert all(s["cluster"] in clusters for s in tracer.spans if s["name"].startswith("summarizers."))


def test_layer_metrics_subtract_child_spans_on_the_same_thread():
    def span(id, name, parent, cpu_start, cpu_end, thread=1):
        return {"id": id, "name": name, "parent": parent, "thread": thread,
                "cpu_start": cpu_start, "cpu_end": cpu_end}

    spans = [
        span(1, "harness.run", None, 0.0, 3.0),
        span(2, "harness.cluster", 1, 0.0, 5.0, thread=2),
        span(3, "harness.cluster", 1, 0.0, 4.0, thread=3),
        span(4, "summarizers.lexrank", 2, 1.0, 3.0, thread=2),
        span(5, "features.tfidf", 4, 1.5, 2.0, thread=2),
        span(6, "corpus.load", 1, 0.5, 1.5),
    ]
    metrics = layer_metrics([(spans, {"porter.stem_calls": 10, "porter.distinct_words": 4})])
    assert metrics["summarizers.lexrank_s"] == 1.5
    assert metrics["features.tfidf_s"] == 0.5
    assert metrics["corpus.load_s"] == 1.0
    # run: 3 - 1 (load on its thread; the clusters ran on pool threads);
    # clusters: (5 - 2) + 4
    assert metrics["harness.self_s"] == 2.0 + 3.0 + 4.0
    assert metrics["features.tfidf_calls_per_cluster"] == 0.5
    assert metrics["porter.distinct_ratio"] == 0.4


def test_tail_is_a_fixed_percentile_with_ten_samples_beyond():
    assert tail(list(range(100)), 90) == 89
    assert tail(list(range(40)), 75) == 29
    assert min_samples(75) == 40 and min_samples(90) == 100
    with pytest.raises(Exception):
        tail(list(range(39)), 75)


def test_report_invariants_catch_a_wrong_average(tmp_path):
    corpus = _write(tmp_path)
    _run(corpus, tmp_path / "report.json")
    report = json.loads((tmp_path / "report.json").read_text())
    ids = [c.cluster_id for c in load_corpus(corpus, "jsonl")]
    assert report_problems(report, ids) == []
    report["averages"]["cwcs"]["R-1"] += 0.01
    assert report_problems(report, ids) == ["average cwcs/R-1 is not the per-cluster mean"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "duc-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
