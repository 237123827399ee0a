"""What the package imports.

Every name a package module imports is used in that module.
``__init__.py`` is skipped: its imports are the package's exports.  An
import kept on purpose (a name another module patches, say) is exempt when
its own line carries ``# noqa: F401``.

A run that warns about nothing never imports ``logging`` (nor
``traceback`` and ``string``, which it imports), and ``import summ``
builds no namedtuple class.  Nor does a quiet ``summ`` command import
``logging``, or ``argparse`` with the ``gettext`` and ``locale`` it loads.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from summ.corpus import load_corpus
from summ.summarizers import ClusterFeatures, LengthBudget, RankList, extract_summary

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "summ"
FIXTURE = str(Path(__file__).parent / "data" / "fixture.jsonl")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        for alias, name in names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import (\n"
        "    Any,\n"
        "    Sequence,  # noqa: F401\n"
        ")\n"
        "import json as js\n"
        "x: Any = js.loads('1')\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


def test_package_modules_have_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_cold_run_imports_no_logging_and_builds_no_namedtuple():
    # numpy first, as bench/worker.py's setup does; collections.namedtuple
    # is what typing.NamedTuple calls to build its class
    script = "\n".join([
        "import collections, sys",
        "import numpy",
        "made = []",
        "build = collections.namedtuple",
        "collections.namedtuple = lambda name, *a, **k: made.append(name) or build(name, *a, **k)",
        "LAZY = ('logging', 'traceback', 'string')",
        "import summ",
        "after_import = [m for m in LAZY if m in sys.modules]",
        f"clusters = summ.load_corpus({FIXTURE!r}, 'jsonl')",
        f"report = summ.run_evaluation(summ.RunConfig(corpus={FIXTURE!r}))",
        "import json",
        "print(json.dumps([made, after_import, [m for m in LAZY if m in sys.modules],",
        "                  len(clusters), report.failures]))",
    ])
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""  # the run warned about nothing
    made, after_import, after_run, clusters, failures = json.loads(done.stdout)
    assert (made, after_import, after_run) == ([], [], [])
    assert clusters > 0 and failures == {}


def test_quiet_cli_commands_import_no_argparse_nor_logging(tmp_path):
    # summ.cli parses its flags from its own table, and sets up its stderr
    # log format only when the first warning is logged
    report = str(tmp_path / "report.csv")
    script = "\n".join([
        "import json, sys",
        "LAZY = ('argparse', 'gettext', 'locale', 'logging')",
        "import summ.cli",
        "after_import = [m for m in LAZY if m in sys.modules]",
        f"codes = [summ.cli.main(['run', '--corpus', {FIXTURE!r}, '--out', {report!r}]),",
        f"         summ.cli.main(['summarize', '--corpus', {FIXTURE!r},",
        "                        '--cluster', 'c01-storm'])]",
        "print(json.dumps([after_import, [m for m in LAZY if m in sys.modules], codes]))",
    ])
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == f"wrote {report}\n"  # and no warning
    after_import, after_run, codes = json.loads(done.stdout.splitlines()[-1])
    assert (after_import, after_run, codes) == ([], [], [0, 0])
    assert len(done.stdout.splitlines()) > 1  # the summary's sentences


def test_warning_is_logged_under_the_module_logger(caplog):
    cluster = load_corpus(FIXTURE, "jsonl")[0]
    rank_list = RankList.from_scores([1.0] * len(cluster))
    with caplog.at_level("WARNING"):
        summary = extract_summary(rank_list, ClusterFeatures(cluster), LengthBudget("words", 1))
    assert summary.sentence_indices == ()
    [record] = caplog.records
    assert (record.name, record.levelname, record.funcName) == (
        "summ.summarizers", "WARNING", "extract_summary")
    assert record.getMessage() == (
        f"budget words:1 fits no sentence of cluster {cluster.cluster_id}; summary is empty")
