"""Command-line interface.

``summ run`` evaluates systems and aggregators over a corpus and writes a
report; ``summ summarize`` prints one cluster's aggregate summary.  Flags
can also come from a JSON config file (``--config``); explicit flags win.

Exit codes: 0 success, 1 usage error, 2 data error, 3 no successful
clusters (for ``summarize``, also a cluster the aggregator cannot use).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .consensus import WcsConfig
from .corpus import CorpusError, invalid_json
from .harness import (
    EMIT_FORMATS,
    NoSuccessfulClustersError,
    RunConfig,
    emit_report,
    run_evaluation,
    summarize_cluster,
)
from .summarizers import LengthBudget, SummarizerConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--corpus", help="corpus path (file or directory)")
    parser.add_argument("--format", choices=["duc-dir", "jsonl"], dest="format")
    parser.add_argument("--budget", help="summary budget, e.g. words:100 or bytes:665")
    parser.add_argument("--systems", help="comma-separated candidate systems")
    parser.add_argument("--lambda", dest="lambda_", type=float,
                        help="uniformity penalty of the consensus objective")
    parser.add_argument("--redundancy-cap", dest="redundancy_cap", type=float,
                        help="skip sentences this cosine-similar to selected ones")
    parser.add_argument("--config", help="JSON file mirroring these flags")


def _build_parser() -> _Parser:
    parser = _Parser(prog="summ", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="evaluate a corpus and write a report")
    _add_common(run)
    run.add_argument("--aggregators", help="comma-separated aggregators")
    run.add_argument("--rouge", help="comma-separated recall orders, e.g. 1,2,4")
    run.add_argument("--out", help="report output path")
    run.add_argument("--emit", choices=list(EMIT_FORMATS))
    run.add_argument("--jobs", type=int, help="reserved; clusters are evaluated serially")

    summarize = commands.add_parser("summarize", help="print one cluster's summary")
    _add_common(summarize)
    summarize.add_argument("--cluster", help="cluster id to summarize")
    summarize.add_argument("--aggregator", help="aggregation method (default cwcs)")
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CorpusError(f"config file: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"config file {path}: {invalid_json(exc)}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    unknown = sorted(set(data) - _FILE_KEYS)
    if unknown:
        raise UsageError(f"config file {path}: unknown keys {unknown}")
    return data


# every key that `run` or `summarize` reads from a file, so that one file
# can serve both commands and a misspelled key is not silently dropped
_FILE_KEYS = frozenset({
    "corpus", "format", "budget", "systems", "lambda", "redundancy_cap",
    "aggregators", "rouge", "out", "emit", "jobs", "cluster", "aggregator",
})


# the JSON types a config file may give the keys that take no string
# alone; flags arrive typed by argparse
_FILE_TYPES = {
    "lambda": ((int, float), "a number"),
    "redundancy_cap": ((int, float), "a number"),
    "jobs": (int, "an integer"),
    "systems": ((str, list), "a string or a list"),
    "aggregators": ((str, list), "a string or a list"),
    "rouge": ((str, int, list), "a string, an integer or a list"),
}


def _effective(args: argparse.Namespace, file_config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    # the file uses flag spelling: "lambda", not the python-safe dest
    file_key = "lambda" if key == "lambda_" else key
    if file_key not in file_config:
        return default
    value = file_config[file_key]
    types, expected = _FILE_TYPES.get(file_key, (str, "a string"))
    # JSON true and false are Python ints too
    if isinstance(value, bool) or not isinstance(value, types):
        raise UsageError(f"config file: {file_key!r} must be {expected}, got {json.dumps(value)}")
    return value


def _split_list(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return tuple(part.strip() for part in str(value).split(",") if part.strip())


def _rouge_orders(value) -> tuple[int, ...]:
    raw = _split_list(value)
    try:
        return tuple(int(n) for n in raw)
    except ValueError:
        raise UsageError(f"--rouge must be integers, got {raw}") from None


# each setting a flag or the config file can give, in the order it is checked,
# and the RunConfig field it sets; one not given keeps the field's default
_RUN_SETTINGS = {
    "budget": ("summarizer", lambda v: SummarizerConfig(budget=LengthBudget.parse(v))),
    "systems": ("systems", _split_list),
    "aggregators": ("aggregators", _split_list),
    "rouge": ("rouge_orders", _rouge_orders),
    "redundancy_cap": ("redundancy_cap", float),
    "format": ("corpus_format", str),
    "lambda_": ("wcs", lambda v: WcsConfig(lambda_=float(v))),
    "jobs": ("jobs", int),
}


def _run_config(
    args: argparse.Namespace, file_config: dict, aggregators: tuple[str, ...] = ()
) -> RunConfig:
    corpus = _effective(args, file_config, "corpus")
    if corpus is None:
        raise UsageError("--corpus is required")
    settings = {}
    for key, (name, convert) in _RUN_SETTINGS.items():
        if key == "aggregators" and aggregators:
            settings[name] = aggregators
            continue
        value = _effective(args, file_config, key)
        if value is not None:
            settings[name] = convert(value)
    return RunConfig(corpus=corpus, **settings)


def _command_run(args: argparse.Namespace) -> int:
    file_config = _load_config_file(args.config)
    config = _run_config(args, file_config)
    emit = _effective(args, file_config, "emit", "csv")
    if emit not in EMIT_FORMATS:
        raise UsageError(f"emit must be one of {EMIT_FORMATS}")
    out = _effective(args, file_config, "out")
    if out is None:
        raise UsageError("--out is required")
    report = run_evaluation(config)
    emit_report(report, emit, out)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _command_summarize(args: argparse.Namespace) -> int:
    file_config = _load_config_file(args.config)
    aggregator = _effective(args, file_config, "aggregator", "cwcs")
    # validated for the one aggregator it runs, not for run's defaults
    config = _run_config(args, file_config, aggregators=(aggregator,))
    cluster_id = _effective(args, file_config, "cluster")
    if cluster_id is None:
        raise UsageError("--cluster is required")
    for sentence in summarize_cluster(config, cluster_id, aggregator):
        print(sentence)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _command_run(args)
        return _command_summarize(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (CorpusError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NoSuccessfulClustersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
