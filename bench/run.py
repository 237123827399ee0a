"""Benchmark of ``summ``: three workloads, end-to-end metrics, a traced pass.

    python3 bench/run.py --workload duc-long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, untraced
    python3 bench/run.py --record-digests 0-99        # rewrite bench/digests.json

Run from anywhere; the program is imported from ``src/`` next to this
directory, so a checkout without ``src/`` fails before any measurement.
Each workload's corpus is generated from ``--seed`` (see corpus_gen.py);
the program only ever sees the jsonl file.  One client drives the CLI in a
closed loop: every pass or query is a fresh ``python3 bench/worker.py``
process that imports ``summ`` untimed and then times one
``summ.cli.main`` call, so no cache survives from one invocation to the
next, as with a user running the command.  A "query" is one ``summ
summarize`` invocation on summarize-one, and the evaluation of one
cluster inside a ``summ run`` pass on the batch workloads.

Every time is multiplied by the interpreter's speed that the worker
sampled while it ran (see worker.py), so times are seconds on a quiet
machine; the raw median pass time and the speeds are printed beside them.

Outputs are checked on every pass: the report digest must equal the
digest recorded in bench/digests.json for that seed (when recorded), must
be the same on every pass of the run, on many-short must equal the digest
of a ``--jobs 1`` pass, and must satisfy invariants that hold for any seed
(oracle R-1 equals the best system's, averages are means of the
per-cluster scores, summaries are sentences of the cluster within the
budget).  A mismatch prints the result with ``"correct": false`` and exits
with code 1.  A pass that fails counts all its operations as failed and
ends the run; its exception is never swallowed to keep timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from alternating untraced and traced passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from corpus_gen import CorpusShape, corpus_lines
from tracing import AGGREGATORS, RANKERS, cluster_latencies_ms, layer_metrics, read_jsonl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
DIGESTS = BENCH / "digests.json"
WORK = ROOT / ".bench_work"

MIN_TRACED = 4  # a full aggregator cycle on summarize-one
GATE_QUERIES = 8  # summarize-one queries covered by the recorded digest
WORKER_TIMEOUT_S = 170
UNITS = tuple(RANKERS) + tuple(AGGREGATORS)
# Workers import from bytecode cached under the work directory, as an
# installed package would, whatever the caller's environment says; the
# warm-up set-up of each run fills the cache.
WORKER_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    args: tuple[str, ...]  # summ CLI flags besides corpus, output and query
    # the percentile reported as query_tail_ms: fixed, so that it means the
    # same on a faster commit, which collects more samples in a run
    tail_pct: int

    @property
    def batch(self) -> bool:
        return self.args[0] == "run"

    @property
    def jobs(self) -> int:
        return int(self.args[self.args.index("--jobs") + 1]) if "--jobs" in self.args else 1


_ALL = ("--systems", ",".join(RANKERS), "--aggregators", ",".join(AGGREGATORS))

# Why each shape: see the "why" of each workload in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # DUC 2003: ~10 documents x ~25 sentences and 4 references per
        # cluster, a 100-word budget; the O(n^2) rankers dominate
        Workload(
            "duc-long",
            CorpusShape(clusters=3, docs=10, sentences=245, reference_words=100),
            ("run", "--budget", "words:100", *_ALL, "--rouge", "1,2,4", "--jobs", "1"),
            tail_pct=75,
        ),
        # many small DUC-2004-like clusters at the 665-byte budget: the
        # per-cluster overheads (wcs restarts, ROUGE, cwcs peers, oracle,
        # load, leave-one-out backgrounds) dominate; the only --jobs 2 run
        Workload(
            "many-short",
            CorpusShape(clusters=64, docs=4, sentences=24, reference_words=100),
            ("run", "--budget", "bytes:665", "--redundancy-cap", "0.95", *_ALL,
             "--rouge", "1,2,4", "--jobs", "2"),
            tail_pct=90,
        ),
        # interactive queries: each reloads the whole corpus, then runs the
        # second per-cluster pipeline (summarize_cluster) for one aggregator
        Workload(
            "summarize-one",
            CorpusShape(clusters=32, docs=4, sentences=24, reference_words=100),
            ("summarize", "--budget", "bytes:665", "--redundancy-cap", "0.95",
             "--systems", ",".join(RANKERS)),
            tail_pct=75,
        ),
    )
}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a wrong program output)."""


# -- statistics ---------------------------------------------------------------


def _rank(pct: int, n: int) -> int:
    """Nearest-rank index of percentile ``pct`` among ``n`` sorted samples."""
    return -(-pct * n // 100) - 1


def min_samples(pct: int) -> int:
    """The fewest samples that leave ten beyond percentile ``pct``."""
    n = 11
    while n - 1 - _rank(pct, n) < 10:
        n += 1
    return n


def tail(values: list[float], pct: int) -> float:
    """Percentile ``pct`` of the values, which must leave ten samples beyond it."""
    if len(values) < min_samples(pct):
        raise BenchError(f"{len(values)} samples are too few for p{pct}")
    return sorted(values)[_rank(pct, len(values))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- running the program --------------------------------------------------------


class Run:
    """The work directory, corpus and pass invocations of one workload run."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        lines = corpus_lines(seed, workload.shape)
        self.corpus = self.dir / "corpus.jsonl"
        self.corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records = [json.loads(line) for line in lines]
        self.cluster_ids = [r["cluster_id"] for r in records]
        self.sentences = {
            r["cluster_id"]: {
                s for d in r["documents"] for s in re.split(r"(?<=\.) (?=[A-Z])", d["text"])
            }
            for r in records
        }
        self.passes = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _worker(self, args: list[str]) -> dict:
        try:
            done = subprocess.run(
                [sys.executable, str(WORKER), *args],
                capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=self.dir,
                env=WORKER_ENV,
            )
        except subprocess.TimeoutExpired:
            return {"exit_code": None, "error": f"timed out after {WORKER_TIMEOUT_S} s"}
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            return {"exit_code": None, "error": done.stderr.strip()[-2000:]}
        if result.get("exit_code", 0) != 0:
            result["error"] = done.stderr.strip()[-2000:]
        return result

    def setup(self) -> dict:
        result = self._worker(["setup", str(ROOT), str(self.corpus)])
        if "setup_s" not in result:
            raise BenchError(f"set-up failed: {result.get('error')}")
        return result

    def query(self, k: int) -> tuple[str, str]:
        """Cluster and aggregator of the k-th summarize query: the four
        aggregators in turn on one cluster, then the next cluster."""
        return self.cluster_ids[(k // 4) % len(self.cluster_ids)], AGGREGATORS[k % 4]

    def argv(self, k: int, jobs: int | None = None) -> list[str]:
        args = list(self.workload.args)
        if jobs is not None:
            args[args.index("--jobs") + 1] = str(jobs)
        args += ["--corpus", str(self.corpus)]
        if self.workload.batch:
            return args + ["--out", str(self.dir / "report.json"), "--emit", "json"]
        cluster, aggregator = self.query(k)
        return args + ["--cluster", cluster, "--aggregator", aggregator]

    def one_pass(self, k: int, traced: bool = False, jobs: int | None = None) -> dict:
        report = self.dir / "report.json"
        report.unlink(missing_ok=True)
        spans = self.dir / f"spans-{self.passes:04d}.jsonl" if traced else None
        self.passes += 1
        result = self._worker(
            ["pass", str(ROOT), str(report), str(spans or "-"), "--", *self.argv(k, jobs)]
        )
        result["k"] = k
        result["spans"] = spans
        if self.workload.batch and result.get("exit_code") == 0:
            result["report"] = json.loads(report.read_text(encoding="utf-8"))
        return result


# -- output checks ---------------------------------------------------------------


def recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def report_problems(report: dict, cluster_ids: list[str]) -> list[str]:
    """Invariants of a correct json report, whatever the seed."""
    problems = []
    per_cluster = report["per_cluster"]
    if sorted(per_cluster) != sorted(cluster_ids):
        problems.append("per_cluster does not cover every cluster")
    for cid, units in per_cluster.items():
        for unit, row in units.items():
            if not all(0.0 <= v <= 1.0 for v in row.values()):
                problems.append(f"{cid}/{unit}: recall outside [0, 1]")
        systems = [units[s]["R-1"] for s in RANKERS if "R-1" in units.get(s, {})]
        if "oracle" in units and systems and units["oracle"]["R-1"] != max(systems):
            problems.append(f"{cid}: oracle R-1 is not the best system's R-1")
    for unit, row in report["averages"].items():
        for order, value in row.items():
            values = [
                per_cluster[c][unit][order]
                for c in sorted(per_cluster)
                if order in per_cluster[c].get(unit, {})
            ]
            if abs(sum(values) / len(values) - value) > 1e-12:
                problems.append(f"average {unit}/{order} is not the per-cluster mean")
    return problems


def summary_problems(run: Run, k: int, text: str) -> list[str]:
    cluster, aggregator = run.query(k)
    lines = text.splitlines()
    if not lines:
        return [f"{cluster}/{aggregator}: empty summary"]
    problems = [
        f"{cluster}/{aggregator}: line is not a sentence of the cluster"
        for line in lines
        if line not in run.sentences[cluster]
    ]
    args = run.workload.args
    kind, limit = args[args.index("--budget") + 1].split(":")
    size = sum(len(line.encode("utf-8")) for line in lines) + len(lines) - 1
    if kind == "bytes" and size > int(limit):
        problems.append(f"{cluster}/{aggregator}: {size} bytes exceed the budget")
    return problems


def queries_digest(run: Run, results: list[dict]) -> str:
    digest = hashlib.sha256()
    for result in results:
        cluster, aggregator = run.query(result["k"])
        digest.update(f"{cluster}\t{aggregator}\n{result['stdout']}".encode("utf-8"))
    return digest.hexdigest()


def failed_ops(report: dict) -> int:
    return sum(
        len(UNITS) if "cluster" in reasons else min(len(reasons), len(UNITS))
        for reasons in report["failures"].values()
    )


class Checker:
    """Accumulates attempted and failed operations and output problems."""

    def __init__(self, run: Run):
        self.run = run
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None
        self.queries: list[dict] = []

    def ops(self) -> int:
        return len(self.run.cluster_ids) * len(UNITS) if self.run.workload.batch else 1

    def add(self, result: dict) -> bool:
        """Check one pass; False when it failed and the run must stop."""
        self.attempted += self.ops()
        if result.get("exit_code") != 0:
            self.failed += self.ops()
            self.problems.append(f"pass {result['k']} failed: {result.get('error')}")
            return False
        if result.get("left_wrapped"):
            self.problems.append(f"tracer left wrappers: {result['left_wrapped']}")
        if not self.run.workload.batch:
            self.problems += summary_problems(self.run, result["k"], result["stdout"])
            if len(self.queries) < GATE_QUERIES and result["k"] == len(self.queries):
                self.queries.append(result)
                if len(self.queries) == GATE_QUERIES:
                    self.compare(queries_digest(self.run, self.queries), "first queries")
            return True
        self.failed += failed_ops(result["report"])
        digest = result["report_sha256"]
        if self.reference is None:
            self.problems += report_problems(result["report"], self.run.cluster_ids)
            self.compare(digest, "report")
        elif digest != self.reference:
            self.problems.append(
                f"pass {result['k']}: report differs from the first pass of the run"
                " (on many-short, the --jobs 1 pass)"
            )
        return True

    def compare(self, digest: str, what: str) -> None:
        self.reference = digest
        recorded = recorded_digest(self.run.workload.name, self.run.seed)
        if recorded is None:
            print(f"note: no recorded digest for seed {self.run.seed}; "
                  f"{what} checked for invariants and consistency only", file=sys.stderr)
        elif recorded != digest:
            self.problems.append(f"{what} digest {digest[:12]} != recorded {recorded[:12]}")

    @property
    def correct(self) -> bool:
        return not self.problems and self.attempted > 0


# -- the two kinds of run ---------------------------------------------------------


def measure(run: Run, seconds: float) -> tuple[dict, Checker, list[str]]:
    """Untimed gate, then timed passes in a closed loop, interleaved with
    set-up timings, so that both sample the same stretch of time.  Times
    are multiplied by the speed the worker sampled while they ran."""
    workload, check = run.workload, Checker(run)
    notes = []
    run.setup()  # warm-up: compiles bytecode and fills the page cache
    if workload.jobs > 1:
        # criterion 6: the report may not depend on --jobs
        if not check.add(run.one_pass(0, jobs=1)):
            return {}, check, notes
    walls, raw_walls, latencies, setups, speeds, peak_rss = [], [], [], [], [], []
    start = time.perf_counter()
    k = 0
    need = min_samples(workload.tail_pct)
    while len(latencies) < need or time.perf_counter() - start < seconds:
        result = run.one_pass(k)
        if not check.add(result):
            return {}, check, notes
        speed = result["speed"]
        speeds.append(speed)
        raw_walls.append(result["wall_s"])
        walls.append(result["wall_s"] * speed)
        if workload.batch:
            latencies += [wall * speed for wall in result["cluster_walls_s"]]
        else:
            latencies.append(result["wall_s"] * speed)
        peak_rss.append(result["peak_rss_mb"])
        # a summarize query costs about one set-up, so every fourth one is
        # enough there and leaves room for the 40 queries the tail needs
        if workload.batch or k % 4 == 3:
            setup = run.setup()
            setups.append(setup["setup_s"] * setup["speed"])
        k += 1
    p50 = statistics.median(latencies)
    clusters = len(run.cluster_ids) if workload.batch else 1
    sentences = sum(len(s) for s in run.sentences.values()) / len(run.sentences)
    what = ("the evaluation of one cluster in a summ run pass" if workload.batch
            else "one summ summarize invocation")
    notes += [
        f"{workload.name} seed {run.seed}: {len(run.cluster_ids)} clusters of "
        f"{sentences:.0f} distinct sentences on average; {len(walls)} passes; "
        f"one query = {what}",
        f"query_tail_ms is p{workload.tail_pct} of {len(latencies)} queries; "
        f"setup_s is the median of {len(setups)} fresh interpreters",
        f"times are multiplied by the sampled speed (median {statistics.median(speeds):.3f},"
        f" range {min(speeds):.3f}-{max(speeds):.3f}); raw median pass "
        f"{1000.0 * statistics.median(raw_walls):.1f} ms",
    ]
    metrics = {
        "clusters_per_s": metric(clusters / statistics.median(walls), "1/s"),
        "query_p50_ms": metric(1000.0 * p50, "ms"),
        "query_tail_ms": metric(1000.0 * tail(latencies, workload.tail_pct), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(peak_rss), "MB"),
    }
    return metrics, check, notes


PER_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_ratio": "ratio"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def trace(run: Run, seconds: float) -> tuple[dict, Checker, list[str]]:
    """Pairs of an untraced and a traced pass of the same input."""
    check = Checker(run)
    ratios, traced, latencies = [], [], []
    start = time.perf_counter()
    k = 0
    need = min_samples(run.workload.tail_pct)
    while (k < MIN_TRACED or len(latencies) < need
           or time.perf_counter() - start < seconds):
        plain = run.one_pass(k)
        if not check.add(plain):
            return {}, check, []
        spanned = run.one_pass(k, traced=True)
        if not check.add(spanned):
            return {}, check, []
        if spanned.get("report_sha256") != plain.get("report_sha256") or (
            spanned["stdout"] != plain["stdout"]
        ):
            check.problems.append(f"pass {k}: traced output differs from untraced")
        # raw wall times of two adjacent passes: the traced one runs
        # without the speed probe
        ratios.append(spanned["wall_s"] / plain["wall_s"])
        traced.append(read_jsonl(spanned["spans"]))
        latencies += cluster_latencies_ms(traced[-1][0])
        k += 1
    spans = [pair[0] for pair in traced]
    metrics = layer_metrics([(s, footer["counters"]) for s, footer in traced])
    metrics["harness.cluster_p50_ms"] = statistics.median(latencies)
    metrics["harness.cluster_tail_ms"] = tail(latencies, run.workload.tail_pct)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    # failures are recorded per (cluster, unit) by the harness
    metrics["harness.failed_ratio"] = check.failed / check.attempted
    merged = WORK / f"{run.workload.name}-s{run.seed}.trace.jsonl"
    with merged.open("w", encoding="utf-8") as handle:
        for number, pass_spans in enumerate(spans):
            for span in pass_spans:
                handle.write(json.dumps({"pass": number, **span}, sort_keys=True) + "\n")
    shares = {k: metrics.pop(k) for k in [k for k in metrics if k.startswith("share.")]}
    notes = [
        "shares of traced self time: "
        + ", ".join(f"{k[6:]} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
        f"{run.workload.name} seed {run.seed}: {len(traced)} traced passes; "
        f"harness.cluster_tail_ms is p{run.workload.tail_pct} of {len(latencies)} clusters; "
        f"spans in {merged.relative_to(ROOT)}"
    ]
    return {k: metric(v, per_layer_unit(k)) for k, v in sorted(metrics.items())}, check, notes


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    run = Run(WORKLOADS[name], seed)
    try:
        metrics, check, notes = (trace if traced else measure)(run, seconds)
    finally:
        run.close()
    result = {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    return result, notes + [f"problem: {p}" for p in check.problems]


# -- entry points ------------------------------------------------------------------


def check_program() -> None:
    package = ROOT / "src" / "summ" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"the program is missing: no {package.relative_to(ROOT)}")


def record_digests(seeds: list[int]) -> None:
    """Write the gate digests of the given seeds for every workload."""
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            run = Run(workload, seed)
            try:
                results = [run.one_pass(k, jobs=1 if workload.jobs > 1 else None)
                           for k in range(1 if workload.batch else GATE_QUERIES)]
            finally:
                run.close()
            if any(r.get("exit_code") != 0 for r in results):
                raise BenchError(f"{name} seed {seed}: a pass failed, nothing recorded")
            digest = (results[0]["report_sha256"] if workload.batch
                      else queries_digest(run, results))
            digests.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", metavar="LOW-HIGH",
                        help="record the output digests of these seeds and exit")
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so that the worker in
    # flight is killed and waited for and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        check_program()
        if args.record_digests:
            record_digests(parse_seeds(args.record_digests))
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = result
            for note in notes:
                print(note)
            for key, value in result["metrics"].items():
                print(f"{name}  {key:34s} {value['value']:14.6g} {value['unit']}")
            print(f"{name}  {'failed_ratio':34s} "
                  f"{result['failed'] / max(result['attempted'], 1):14.6g} "
                  f"({result['failed']} of {result['attempted']} operations)")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    final = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(final, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
