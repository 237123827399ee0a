"""Spans and counters around the layers of ``summ``, from outside the package.

``Tracer.install`` replaces the module-level names through which the
harness and the CLI reach each layer with wrappers that record a span
(name, start, end, parent, cluster id, thread) per call, and counters
for the calls too frequent to span.  ``Tracer.restore`` puts every
original back.  Nothing in ``src/`` is edited: the wrappers sit at the
seams the package already has.

Each thread keeps its own span stack.  A span opened on a thread whose
stack is empty (a pool worker of ``run_evaluation``) gets the outermost
open span as its parent.  Each span holds its wall interval and its
thread's CPU time (``time.thread_time``) at open and close.  Self times
are thread CPU times, so that with ``--jobs 2`` a thread's layer times do
not include the time it waited for the interpreter lock while the other
thread ran; cluster latencies are wall times.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import Counter
from pathlib import Path

RANKERS = ("lexrank", "textrank", "centroid", "freqsum", "topicsum", "greedykl")
AGGREGATORS = ("borda", "wcs", "cwcs", "oracle")

# span name -> metric its self time adds to; every span also adds to the
# total of its layer, the part of its name before the first dot
_SELF_TIME_METRICS = {
    **{f"summarizers.{r}": f"summarizers.{r}_s" for r in RANKERS},
    "summarizers.extract": "summarizers.extract_s",
    "consensus.borda": "consensus.borda_s",
    "consensus.wcs": "consensus.wcs_s",
    "consensus.cwcs": "consensus.cwcs_s",
    "consensus.cwcs_raw_weights": "consensus.cwcs_s",
    "consensus.cwcs_weights": "consensus.cwcs_s",
    "consensus.oracle": "consensus.oracle_s",
    "rouge.prepare": "rouge.prepare_s",
    "rouge.score": "rouge.score_s",
    "rouge.pairwise": "rouge.pairwise_s",
    "corpus.load": "corpus.load_s",
    "features.tfidf": "features.tfidf_s",
    "harness.run": "harness.self_s",
    "harness.cluster": "harness.self_s",
    "harness.summarize": "harness.self_s",
    "cli.emit": "cli.emit_s",
}

LAYERS = ("summarizers", "consensus", "rouge", "corpus", "features", "harness", "cli")

_CALL_COUNTS = {
    "summarizers.extract": "summarizers.extract_calls",
    "rouge.prepare": "rouge.prepare_calls",
    "rouge.score": "rouge.score_calls",
}


_MISSING = object()


def _cluster_of(args) -> str | None:
    for arg in args:
        cluster_id = getattr(arg, "cluster_id", None)
        if isinstance(cluster_id, str):
            return cluster_id
    return None


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.stemmed: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._root: dict | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, cluster: str | None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "cluster": cluster if cluster is not None else (parent or {}).get("cluster"),
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
            "cpu_start": time.thread_time(),
            "cpu_end": None,
        }
        if parent is None:
            self._root = span
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["cpu_end"] = time.thread_time()
        span["end"] = time.perf_counter()
        self._stack().pop()
        if self._root is span:
            self._root = None
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn, on_result=None, cluster_arg: int | None = None):
        """``fn`` recording a span per call; ``cluster_arg`` is the index of
        a cluster-id argument, else the id comes from a cluster argument."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cluster = args[cluster_arg] if cluster_arg is not None else _cluster_of(args)
            span = self._open(name, cluster)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    # -- counters ----------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def _counting(self, key: str, fn, remember=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            if remember:
                self.stemmed.add(args[0])
            return fn(*args, **kwargs)

        wrapper.__bench_original__ = fn
        return wrapper

    def _rank_result(self, rank_list) -> None:
        if len(rank_list.scores) > 1 and len(set(rank_list.scores)) == 1:
            self._count("summarizers.uniform_fallbacks")

    def _summary_result(self, summary) -> None:
        if not summary.sentence_indices:
            self._count("summarizers.empty_summaries")

    def _wcs_result(self, result) -> None:
        self._count("consensus.wcs_calls")
        self._count("consensus.wcs_iterations", result.iterations or 0)
        if not result.converged:
            self._count("consensus.wcs_unconverged")

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _patch_item(self, mapping: dict, key: str, replacement) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def install(self) -> None:
        """Wrap the seams of the imported ``summ`` package."""
        import summ.cli as cli
        import summ.consensus as consensus
        import summ.harness as harness
        import summ.porter as porter
        import summ.summarizers as summarizers

        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrap, patch = self.wrap, self._patch
        for name, fn in list(harness._RANKERS.items()):
            self._patch_item(
                harness._RANKERS, name,
                wrap(f"summarizers.{name}", fn, on_result=self._rank_result),
            )
        patch(harness, "topicsum_rank", wrap(
            "summarizers.topicsum", harness.topicsum_rank, on_result=self._rank_result))
        patch(harness, "extract_summary", wrap(
            "summarizers.extract", harness.extract_summary, on_result=self._summary_result))
        patch(harness, "borda_aggregate", wrap("consensus.borda", harness.borda_aggregate))
        patch(harness, "wcs_aggregate", wrap(
            "consensus.wcs", harness.wcs_aggregate, on_result=self._wcs_result))
        patch(harness, "cwcs_aggregate", wrap("consensus.cwcs", harness.cwcs_aggregate))
        patch(harness, "cwcs_raw_weights", wrap(
            "consensus.cwcs_raw_weights", harness.cwcs_raw_weights))
        patch(harness, "cwcs_weights", wrap("consensus.cwcs_weights", harness.cwcs_weights))
        patch(harness, "oracle_select", wrap("consensus.oracle", harness.oracle_select))
        patch(harness, "prepare_sentences", wrap("rouge.prepare", harness.prepare_sentences))
        patch(harness, "prepare_text", wrap("rouge.prepare", harness.prepare_text))
        patch(harness, "rouge_n_recall", wrap("rouge.score", harness.rouge_n_recall))
        patch(harness, "load_corpus", wrap("corpus.load", harness.load_corpus))
        patch(harness, "duplicate_stats", wrap("corpus.duplicate_stats", harness.duplicate_stats))
        patch(harness, "_evaluate_cluster", wrap("harness.cluster", harness._evaluate_cluster))
        patch(consensus, "prepare_text", wrap("rouge.prepare", consensus.prepare_text))
        patch(consensus, "rouge_n_recall", wrap("rouge.score", consensus.rouge_n_recall))
        patch(consensus, "pairwise_sim_matrix", wrap(
            "rouge.pairwise", consensus.pairwise_sim_matrix))
        patch(summarizers, "tfidf_vectors", wrap("features.tfidf", summarizers.tfidf_vectors))
        patch(summarizers, "cosine_similarity", self._counting(
            "features.cosine_calls", summarizers.cosine_similarity))
        patch(porter, "stem", self._counting("porter.stem_calls", porter.stem, remember=True))
        patch(cli, "run_evaluation", wrap("harness.run", cli.run_evaluation))
        patch(cli, "summarize_cluster", wrap(
            "harness.summarize", cli.summarize_cluster, cluster_arg=1))
        patch(cli, "emit_report", wrap("cli.emit", cli.emit_report))
        # the CLI's other output goes through the builtin print, which a
        # module global of the same name shadows
        patch(cli, "print", wrap("cli.emit", print))

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            elif original is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, original)

    def write_jsonl(self, path: Path) -> None:
        """Spans in start order, one JSON object a line, then the counters."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")
            counters = dict(self.counters, **{"porter.distinct_words": len(self.stemmed)})
            handle.write(json.dumps({"counters": counters}, sort_keys=True) + "\n")


def installed_wrappers() -> list[str]:
    """Names in ``summ`` that still point at a tracing wrapper (for checks)."""
    import summ.cli as cli
    import summ.consensus as consensus
    import summ.harness as harness
    import summ.porter as porter
    import summ.summarizers as summarizers

    found = []
    for module in (cli, consensus, harness, porter, summarizers):
        for name, value in vars(module).items():
            if hasattr(value, "__bench_original__"):
                found.append(f"{module.__name__}.{name}")
    for name, value in harness._RANKERS.items():
        if hasattr(value, "__bench_original__"):
            found.append(f"summ.harness._RANKERS[{name}]")
    return found


def read_jsonl(path: Path) -> tuple[list[dict], dict]:
    spans, footer = [], {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "counters" in record:
            footer = record
        else:
            spans.append(record)
    return spans, footer


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> thread CPU time of the span minus that of its children on
    the same thread (children on a pool thread are not part of it)."""
    children: Counter = Counter()
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["thread"] == span["thread"]:
            children[parent["id"]] += span["cpu_end"] - span["cpu_start"]
    return {
        span["id"]: (span["cpu_end"] - span["cpu_start"]) - children[span["id"]]
        for span in spans
    }


def layer_metrics(passes: list[tuple[list[dict], dict]]) -> dict[str, float]:
    """Per-layer numbers over traced passes, given as (spans, counters).

    Times and counts are means per pass (one CLI invocation); ratios are
    taken over the totals of all passes.
    """
    totals: Counter = Counter()
    layer_totals: Counter = Counter({layer: 0.0 for layer in LAYERS})
    names: Counter = Counter()
    counters: Counter = Counter()
    distinct_ratios = []
    for spans, pass_counters in passes:
        own = self_times(spans)
        for span in spans:
            metric = _SELF_TIME_METRICS.get(span["name"])
            if metric is not None:
                totals[metric] += own[span["id"]]
            layer_totals[span["name"].split(".")[0]] += own[span["id"]]
            names[span["name"]] += 1
        counters.update(pass_counters)
        distinct_ratios.append(
            pass_counters.get("porter.distinct_words", 0)
            / max(pass_counters.get("porter.stem_calls", 0), 1)
        )
    for span_name, metric in _CALL_COUNTS.items():
        totals[metric] = names[span_name]
    for key in ("features.cosine_calls", "porter.stem_calls",
                "summarizers.uniform_fallbacks", "summarizers.empty_summaries",
                "consensus.wcs_unconverged"):
        totals[key] = counters[key]
    # duplicate_stats never runs on a summarize query, so it is reported
    # inside the corpus layer's total rather than as a metric of its own
    totals["corpus.total_s"] = layer_totals["corpus"]
    n = len(passes)
    metrics = {key: totals[key] / n for key in set(_SELF_TIME_METRICS.values()) | set(totals)}
    clusters = names["harness.cluster"] + names["harness.summarize"]
    metrics["features.tfidf_calls_per_cluster"] = names["features.tfidf"] / max(clusters, 1)
    metrics["porter.distinct_ratio"] = statistics.fmean(distinct_ratios)
    metrics["consensus.wcs_iterations"] = (
        counters["consensus.wcs_iterations"] / max(counters["consensus.wcs_calls"], 1)
    )
    traced = sum(layer_totals.values())
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layer_totals[layer] / traced if traced else 0.0
    return metrics


def cluster_latencies_ms(spans: list[dict]) -> list[float]:
    return [
        1000.0 * (span["end"] - span["start"])
        for span in spans
        if span["name"] in ("harness.cluster", "harness.summarize")
    ]
