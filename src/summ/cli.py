"""Command-line interface.

``summ run`` evaluates systems and aggregators over a corpus and writes a
report; ``summ summarize`` prints one cluster's aggregate summary.  Flags
can also come from a JSON config file (``--config``); explicit flags win.

Exit codes: 0 success, 1 usage error, 2 data error, 3 no successful
clusters (for ``summarize``, also a cluster the aggregator cannot use).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from . import log
from .corpus import CorpusError, invalid_json
from .harness import (
    EMIT_FORMATS,
    NoSuccessfulClustersError,
    RunConfig,
    emit_report,
    run_evaluation,
    summarize_cluster,
)
from .summarizers import LengthBudget


class UsageError(Exception):
    pass


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


_COMMANDS = {"run": "evaluate a corpus and write a report",
             "summarize": "print one cluster's summary"}
_BOTH, _RUN, _SUMMARIZE = ("run", "summarize"), ("run",), ("summarize",)

# Every setting, by flag name, which a config file spells with "_" for "-":
# the commands that take it, the conversion a value goes through (or its
# tuple of choices), the RunConfig field it sets (None: the command reads it
# itself), and its help.  A setting left out keeps RunConfig's default.
_SETTINGS = {
    "corpus": (_BOTH, str, "corpus", "corpus path (file or directory)"),
    "format": (_BOTH, ("duc-dir", "jsonl"), "corpus_format", "corpus format"),
    "budget": (_BOTH, LengthBudget.parse, "budget", "summary budget, e.g. words:100 or bytes:665"),
    "systems": (_BOTH, _split_list, "systems", "comma-separated candidate systems"),
    "lambda": (_BOTH, float, "lambda_", "uniformity penalty of the consensus objective"),
    "redundancy-cap": (_BOTH, float, "redundancy_cap",
                       "skip sentences this cosine-similar to selected ones"),
    "config": (_BOTH, str, None, "JSON file mirroring these flags"),
    "aggregators": (_RUN, _split_list, "aggregators", "comma-separated aggregators"),
    "rouge": (_RUN, _rouge_orders, "rouge_orders", "comma-separated recall orders, e.g. 1,2,4"),
    "out": (_RUN, str, None, "report output path"),
    "emit": (_RUN, EMIT_FORMATS, None, "report format"),
    "jobs": (_RUN, int, None, "accepted (N >= 1) and ignored; clusters run serially"),
    "cluster": (_SUMMARIZE, str, None, "cluster id to summarize"),
    "aggregator": (_SUMMARIZE, str, None, "aggregation method (default cwcs)"),
}

# the JSON types a config-file value may have, by its setting's conversion
# (any other takes a string); JSON true and false are refused, not taken as ints
_FILE_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    _split_list: ((str, list), "a string or a list"),
    _rouge_orders: ((str, int, list), "a string, an integer or a list"),
}


def _converted(name: str, value):
    convert = _SETTINGS[name][1]
    if isinstance(convert, tuple):
        if value in convert:
            return value
        raise UsageError(f"{name} must be one of {convert}")
    try:
        return convert(value)
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from None


def _flag(arg: str, names) -> str:
    """The name ``--NAME`` gives: an exact name, else, as in argparse, the
    one name it is a prefix of."""
    given = arg[2:]
    found = [given] if given in names else [n for n in names if given and n.startswith(given)]
    if len(found) != 1:
        raise UsageError(f"ambiguous flag {arg}: could be --{', --'.join(found)}"
                         if found else f"unknown flag {arg}")
    return found[0]


def _parse(argv: list[str]) -> tuple[str | None, dict | None]:
    """``summ COMMAND [--flag VALUE | --flag=VALUE]...``: the command and its
    flags' converted values by flag name (the last of a repeated flag), or
    None for them when help is asked for (None for the command: top help)."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    names = [name for name, setting in _SETTINGS.items() if command in setting[0]] + ["help"]
    flags = {}
    args = iter(argv[1:] if command else argv)
    for arg in args:
        if not arg.startswith("--") and arg != "-h":
            raise UsageError(f"unexpected argument {arg!r}" if command else
                             f"unknown command {arg!r}; expected run or summarize")
        given, has_value, value = arg.partition("=")
        name = "help" if arg == "-h" else _flag(given, names)
        if name == "help":
            return command, None
        if not has_value:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"--{name} needs a value")
        flags[name] = _converted(name, value)
    if command is None:
        raise UsageError("no command; expected run or summarize")
    return command, flags


def _help(command: str | None) -> str:
    if command is None:
        usage, about, rows = "{run,summarize}", "summ COMMAND --help lists its flags", _COMMANDS
    else:
        usage, about = command, _COMMANDS[command]
        rows = {}
        for name, (commands, convert, _, text) in _SETTINGS.items():
            if command in commands:
                choices = f" (one of {', '.join(convert)})" if isinstance(convert, tuple) else ""
                rows[f"--{name}"] = text + choices
    lines = [f"usage: summ {usage} [--flag VALUE | --flag=VALUE]...", "", about, ""]
    return "\n".join(lines + [f"  {name:<18}{text}" for name, text in rows.items()])


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
    # every key of either command, so that one file can serve both and a
    # misspelled key is not silently dropped
    keys = {name.replace("-", "_") for name in _SETTINGS if name != "config"}
    unknown = sorted(set(data) - keys)
    if unknown:
        raise UsageError(f"config file {path}: unknown keys {unknown}")
    return data


def _values(command: str, flags: dict) -> dict:
    """The command's settings by flag name: a flag's value, else the config
    file's, which must have its setting's JSON type."""
    file_config = _load_config_file(flags.get("config"))
    values = {}
    for name, (commands, convert, _, _) in _SETTINGS.items():
        key = name.replace("-", "_")
        if command not in commands or name in flags or key not in file_config:
            continue
        value = file_config[key]
        types, expected = _FILE_TYPES.get(convert, (str, "a string"))
        if isinstance(value, bool) or not isinstance(value, types):
            raise UsageError(f"config file: {key!r} must be {expected}, got {json.dumps(value)}")
        values[name] = _converted(name, value)
    return {**values, **flags}


def _run_config(values: dict) -> RunConfig:
    if "corpus" not in values:
        raise UsageError("--corpus is required")
    return RunConfig(**{_SETTINGS[name][2]: value for name, value in values.items()
                        if _SETTINGS[name][2] is not None})


def _command_run(values: dict) -> int:
    config = _run_config(values)
    if values.get("jobs", 1) < 1:
        raise UsageError("jobs must be >= 1")
    out = values.get("out")
    if out is None:
        raise UsageError("--out is required")
    report = run_evaluation(config)
    emit_report(report, values.get("emit", "csv"), out)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _command_summarize(values: dict) -> int:
    aggregator = values.get("aggregator", "cwcs")
    # validated for the one aggregator it runs, not for run's defaults
    config = _run_config({**values, "aggregators": (aggregator,)})
    cluster_id = values.get("cluster")
    if cluster_id is None:
        raise UsageError("--cluster is required")
    for sentence in summarize_cluster(config, cluster_id, aggregator):
        print(sentence)
    return 0


def main(argv=None) -> int:
    # warnings print as "WARNING <message>" on stderr, set up at the first
    log.on_first_warning = lambda logging: logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        command, flags = _parse(sys.argv[1:] if argv is None else argv)
        if flags is None:
            print(_help(command))
            return 0
        values = _values(command, flags)
        if command == "run":
            return _command_run(values)
        return _command_summarize(values)
    except (UsageError, ValueError) as exc:
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
