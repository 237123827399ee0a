"""What the package and its tests import.

Every name a package module imports is used in that module.
``__init__.py`` is skipped: its imports are the package's exports.  An
import kept on purpose (a name another module patches, say) is exempt when
its own line carries ``# noqa: F401``.

No test module imports from another (the oracles and fixtures they share
live in ``tests/reference``), and no oracle there reads an ``_``-prefixed
name of ``summ``: an oracle that calls the code it checks cannot catch
that code's bugs.

A run that warns about nothing never imports ``logging`` (nor
``traceback`` and ``string``, which it imports), and ``import summ``
builds no namedtuple class.  Nor does a quiet ``summ`` command import
``logging``, or ``argparse`` with the ``gettext`` and ``locale`` it loads.
"""

import ast
import json
from pathlib import Path

from summ.harness import RunConfig, summarize_cluster
from summ.summarizers import LengthBudget

from reference.fixture import FIXTURE, run_python

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "summ"
TESTS = Path(__file__).resolve().parent


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


def forbidden_imports(source: str, oracle: bool) -> list[str]:
    """What ``source`` imports from a ``test_*`` module and, for an
    ``oracle``, each ``_``-prefixed name of ``summ`` it imports or reads
    off a name it imported from ``summ``; with their lines."""
    tree = ast.parse(source)
    found, from_summ = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports = [(a.name, "", a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports = [(node.module or "", a.name, a.asname or a.name) for a in node.names]
        else:
            continue
        for module, name, bound in imports:
            in_summ = oracle and module.partition(".")[0] == "summ"
            if module.startswith("test_") or (in_summ and name.startswith("_")):
                found.append(f"{'.'.join(filter(None, (module, name)))} (line {node.lineno})")
            if in_summ:
                from_summ.add(bound)
    for node in ast.walk(tree):
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__") and getattr(root, "id", None) in from_summ):
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


def test_forbidden_imports_are_found():
    source = (
        "import summ.consensus\n"
        "from summ import harness\n"
        "from summ.rouge import RougeScore, _grams as grams\n"
        "from test_porter import oracle_stem\n"
        "import test_corpus as tc\n"
        "x = summ.consensus._project_row, harness._RANKERS, RougeScore._fields\n"
        "y = summ.consensus.WCS_TOL, harness.__name__\n"
    )
    assert forbidden_imports(source, oracle=True) == [
        "summ.rouge._grams (line 3)", "test_porter.oracle_stem (line 4)", "test_corpus (line 5)",
        "summ.consensus._project_row (line 6)", "harness._RANKERS (line 6)",
        "RougeScore._fields (line 6)",
    ]
    assert forbidden_imports(source, oracle=False) == [
        "test_porter.oracle_stem (line 4)", "test_corpus (line 5)"]


def test_tests_import_no_test_module_and_oracles_no_private_name():
    found = {
        str(path.relative_to(TESTS)): forbidden
        for path in sorted(TESTS.rglob("*.py"))
        if (forbidden := forbidden_imports(
            path.read_text(encoding="utf-8"), oracle=path.parent.name == "reference"))
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
    done = run_python("-c", script)
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
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stderr == f"wrote {report}\n"  # and no warning
    after_import, after_run, codes = json.loads(done.stdout.splitlines()[-1])
    assert (after_import, after_run, codes) == ([], [], [0, 0])
    assert len(done.stdout.splitlines()) > 1  # the summary's sentences


def test_warning_is_logged_under_the_module_logger(caplog):
    config = RunConfig(FIXTURE, budget=LengthBudget("words", 1))
    with caplog.at_level("WARNING"):
        sentences = summarize_cluster(config, "c01-storm", "cwcs")
    assert sentences == []
    # one record, though every cwcs peer's summary is empty too
    [record] = caplog.records
    assert (record.name, record.levelname, record.funcName) == (
        "summ.harness", "WARNING", "summarize_cluster")
    assert record.getMessage() == (
        "budget words:1 fits no sentence of cluster c01-storm; summary is empty")
