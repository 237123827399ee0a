"""One measured CLI invocation in a fresh interpreter.

    python3 bench/worker.py setup ROOT CORPUS
    python3 bench/worker.py pass ROOT OUT_JSON SPANS_JSONL|- -- <summ cli args>

``setup`` times ``import summ`` plus ``load_corpus``: the fixed cost every
CLI invocation pays before ranking starts, less the import of numpy.
``pass`` imports ``summ`` untimed, then times one ``summ.cli.main`` call,
so every pass starts as cold as a real invocation: no cache filled by an
earlier pass survives.
An untimed pass also times each cluster of a batch run, by one wrapper
around ``summ.harness._evaluate_cluster`` (two clock reads a cluster).
With a spans path the pass runs under the tracer instead, without the
probe below, and the tracer is removed again before the result is
written.  The result is one JSON object on the last line of standard
output.

Both modes also report ``speed``: how fast the interpreter ran while the
timed code ran, relative to a quiet machine.  A ``Probe`` samples it: a
timer signal interrupts the timed code every ``INTERVAL_S`` and runs a
short fixed loop, whose duration against its quiet duration gives the
speed at that moment.  Samples are evenly spread over wall time, so their
mean is the mean speed over the timed code; times are reported with the
probe's own time taken out, and the benchmark multiplies them by the
speed, giving seconds on the quiet machine.  So a machine whose speed
drifts (other tenants on a shared core) gives steady figures.  The loop
is the benchmark's own code, so a change to ``summ`` cannot move it, and
it creates no objects the garbage collector tracks, so it cannot trigger
a collection whose cost depends on the program's heap.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

# seconds one probe_loop() takes on a quiet machine (the fastest seen on a
# 2-vCPU Intel Xeon VM under CPython 3.11); the probe's unit of speed
QUIET_PROBE_S = 0.00032
INTERVAL_S = 0.025

_WORDS = tuple(f"Tok{i % 97}en{i % 13}" for i in range(150))
_TABLE = {word: i for i, word in enumerate(_WORDS)}


def probe_loop() -> float:
    """A fixed mix of dict lookups, string work and float math."""
    total = 0.0
    for _ in range(16):
        for word in _WORDS:
            total += _TABLE[word] * 0.5 + len(word.lower())
    return total


class Probe:
    """Samples the interpreter's speed while the ``with`` body runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the probe so far
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:  # a signal that arrived while sampling
            return
        self._busy = True
        start = time.perf_counter()
        probe_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        self._busy = False

    def __enter__(self) -> "Probe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @property
    def speed(self) -> float:
        """Mean speed over the samples, 1.0 on the quiet machine."""
        return statistics.fmean(QUIET_PROBE_S / s for s in self.samples)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _setup(corpus: str) -> dict:
    # numpy, summ's one dependency, is imported untimed first: against the
    # probe, its import time swung by 40 % from minute to minute on a
    # shared VM (cache-cold loading of a large extension), while the rest
    # of set-up held steady; only dropping the dependency could change it
    import numpy  # noqa: F401

    with Probe() as probe:
        start, spent = time.perf_counter(), probe.spent
        import summ

        clusters = summ.load_corpus(corpus, "jsonl")
        elapsed = time.perf_counter() - start - (probe.spent - spent)
    return {"setup_s": elapsed, "clusters": len(clusters), "speed": probe.speed}


def _timing_clusters(harness, probe: Probe, walls: list[float]):
    """Time each cluster of a batch run, leaving out the probe's time."""
    evaluate = harness._evaluate_cluster

    def timed(*args, **kwargs):
        start, spent = time.perf_counter(), probe.spent
        try:
            return evaluate(*args, **kwargs)
        finally:
            walls.append(time.perf_counter() - start - (probe.spent - spent))

    harness._evaluate_cluster = timed
    return lambda: setattr(harness, "_evaluate_cluster", evaluate)


def _pass(out_json: str, spans_path: str, argv: list[str]) -> dict:
    import summ.cli
    import summ.harness

    cluster_walls: list[float] = []
    probe = Probe()
    if spans_path != "-":
        # no probe: its samples would fall inside the spans
        from tracing import Tracer, installed_wrappers

        tracer = Tracer()
        tracer.install()
        restore = tracer.restore
        probing = contextlib.nullcontext()
    else:
        tracer = None
        restore = _timing_clusters(summ.harness, probe, cluster_walls)
        probing = probe
    stdout = io.StringIO()
    with probing:
        start, spent = time.perf_counter(), probe.spent
        try:
            with contextlib.redirect_stdout(stdout):
                code = summ.cli.main(argv)
        finally:
            wall = time.perf_counter() - start - (probe.spent - spent)
            restore()
    result = {
        "wall_s": wall,
        "cluster_walls_s": cluster_walls,
        "exit_code": code,
        "stdout": stdout.getvalue(),
    }
    if tracer is None:
        result["speed"] = probe.speed
    report = Path(out_json)
    if report.exists():
        result["report_sha256"] = hashlib.sha256(report.read_bytes()).hexdigest()
    if tracer is not None:
        result["left_wrapped"] = installed_wrappers()
        tracer.write_jsonl(Path(spans_path))
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def main(argv: list[str]) -> int:
    mode, root = argv[0], Path(argv[1])
    sys.path.insert(0, str(root / "src"))
    if mode == "setup":
        result = _setup(argv[2])
    elif mode == "pass":
        split = argv.index("--")
        result = _pass(argv[2], argv[3], argv[split + 1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
