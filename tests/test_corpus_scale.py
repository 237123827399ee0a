"""A run over many generated clusters, three of them salted with a defect.

Every cluster must be scored on its own: a sample of clusters scores the
same in the corpus run as in a run on that cluster alone, and each salted
cluster fails or warns for itself only.  The cheap systems run, and no
topicsum, whose background is the rest of the corpus.

    python tests/test_corpus_scale.py N

runs the same check on N generated clusters and prints the run's time and
the process's peak RSS.  Malformed records are left out: today one of
them aborts the whole run (ROADMAP item 9).
"""

import json
import logging
import resource
import sys
import time
from pathlib import Path

from summ.harness import RunConfig, run_evaluation

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from corpus_gen import CorpusShape, corpus_lines  # noqa: E402

NO_REFERENCES, OVER_BUDGET, REPEATED = "salt-no-references", "salt-over-budget", "salt-repeated"


def salted_lines(clusters: int) -> list[str]:
    """``clusters`` many-short-shaped clusters, then three salted ones: one
    without references, one whose every sentence is longer than the
    default budget of 100 words, and one whose documents all open with one
    sentence, which the first document repeats at its end."""
    lines = corpus_lines(0, CorpusShape(clusters=clusters, docs=4, sentences=24,
                                        reference_words=100))
    no_references = {**json.loads(lines[0]), "cluster_id": NO_REFERENCES}
    del no_references["references"]

    over_budget = {**json.loads(lines[1]), "cluster_id": OVER_BUDGET}
    text = " ".join(d["text"] for d in over_budget["documents"])
    cluster_words = text.replace(".", "").lower().split()
    over_budget["documents"] = [
        {"id": f"doc{d}", "text": " ".join(cluster_words[150 * d:150 * (d + 1)]).capitalize() + "."}
        for d in range(2)
    ]

    repeated = {**json.loads(lines[2]), "cluster_id": REPEATED}
    documents = repeated["documents"]
    lead = "Officials repeated the statement about the flooded harbour."
    for document in documents:
        document["text"] = f"{lead} {document['text']}"
    documents[0]["text"] += f" {lead}"
    return lines + [json.dumps(c, sort_keys=True) for c in (no_references, over_budget, repeated)]


def _run(path: Path):
    config = RunConfig(path, systems=("centroid", "freqsum"), aggregators=("borda",))
    return run_evaluation(config)


def check_corpus(directory: Path, clusters: int) -> float:
    """Check a run over ``clusters`` generated clusters and the salted ones;
    returns the run's wall seconds."""
    lines = salted_lines(clusters)
    ids = [json.loads(line)["cluster_id"] for line in lines]
    path = directory / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    warnings = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = warnings.append
    logger = logging.getLogger("summ")
    logger.addHandler(handler)
    try:
        start = time.perf_counter()
        report = _run(path)
        seconds = time.perf_counter() - start
    finally:
        logger.removeHandler(handler)

    # every cluster is scored but the one without references, which is
    # the only failure, and only the over-budget cluster warns
    assert list(report.per_cluster) == [c for c in ids if c != NO_REFERENCES]
    assert report.failures == {
        NO_REFERENCES: {"cluster": "no reference summaries; excluded from averages"}}
    assert report.stats["unscored_clusters"] == [NO_REFERENCES]
    assert [r.getMessage() for r in warnings] == [
        f"budget words:100 fits no sentence of cluster {OVER_BUDGET}; "
        "empty summaries: centroid, freqsum, borda"]
    assert report.per_cluster[OVER_BUDGET] == dict.fromkeys(
        ("centroid", "freqsum", "borda"), {"R-1": 0.0, "R-2": 0.0, "R-4": 0.0})
    # the salted lead is one repeat more than the cluster it was made from
    duplicates = report.stats["duplicate_sentences"]
    assert duplicates[REPEATED] == duplicates[ids[2]] + 1

    # a cluster scores the same alone
    for cluster_id in (ids[0], ids[17 % clusters], ids[clusters - 1], OVER_BUDGET, REPEATED):
        alone = directory / f"{cluster_id}.jsonl"
        alone.write_text(lines[ids.index(cluster_id)] + "\n", encoding="utf-8")
        solo = _run(alone)
        assert solo.per_cluster == {cluster_id: report.per_cluster[cluster_id]}
        assert solo.stats["duplicate_sentences"] == {
            cluster_id: report.stats["duplicate_sentences"][cluster_id]}
        assert solo.failures == {}
    return seconds


def test_each_of_many_clusters_is_scored_on_its_own(tmp_path):
    check_corpus(tmp_path, 256)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        seconds = check_corpus(Path(directory), int(sys.argv[1]))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{sys.argv[1]} clusters: run {seconds:.2f} s, peak RSS {peak_mb:.0f} MB")
