"""The fixture's reports and summaries, pinned by SHA-256.

A change that moves one bit of a report fails here, not only in the
benchmark's digest check.  Only the bytes that OpenBLAS's SkylakeX,
Haswell and Prescott kernels (``OPENBLAS_CORETYPE``) all give are pinned:
the two runs below and every summary of c01-storm and c02-election.  The
graph rankers' power iteration and wcs's r* are BLAS gemvs, whose
rounding depends on the kernel, and that reorders c03-probe's borda and
cwcs summaries and the ``--budget words:30 --rouge 1,2`` run, so those are
left out.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from summ.cli import main

FIXTURE = str(Path(__file__).parent / "data" / "fixture.jsonl")
CAP = ("--budget", "bytes:665", "--redundancy-cap", "0.95")

RUNS = {
    "defaults": ((), "1e45e3762ab4ea6eebfdb973147add2aba9a5c8cc7150866c40db7e656dca7fb"),
    "bytes-capped": (CAP, "6b417c0e48cd9f62e67bacb88a335234e8e33f76df04b5ab377d68be19cd34f1"),
}

# (cluster, aggregator): (uncapped, capped) digests of the printed summary
SUMMARIES = {
    ("c01-storm", "borda"): (
        "d69771df7b5d242626b3170da476c8b0a4bad2e5346dadea3bf6eafa79e73bdf",
        "bbd02d4fe6fa114a0f02cf85d7eae1f730831b82057d2ae318abb4faf3d9a6de",
    ),
    ("c01-storm", "wcs"): (
        "91ca76d32e38e49de073b0ccf1e485995fe98e758ce3adc1c969121302199a8e",
        "3cb57a839163280f2203f7bc1e0170bd6664d2fa2242903df761ea93227ad0d6",
    ),
    ("c01-storm", "cwcs"): (
        "583c056288f3ba109b89cb2042589927eb96ab29f34bb8d7ebb9eaba4277f471",
        "7c761bcf5c260b423b032e62f3a15e9003868b240ec1107d3cae9b678472c5ec",
    ),
    ("c01-storm", "oracle"): (
        "8c7388afe7884896ba92b13506977fc955dc451455df7e627d01752ddc7ae46e",
        "8c7388afe7884896ba92b13506977fc955dc451455df7e627d01752ddc7ae46e",
    ),
    ("c02-election", "borda"): (
        "90680fe38ec220b6a07970171638db7bb10a8d2b433708d1228aefec1f07b3e0",
        "90680fe38ec220b6a07970171638db7bb10a8d2b433708d1228aefec1f07b3e0",
    ),
    ("c02-election", "wcs"): (
        "2fb8967c32b7ffd30a3dea9618d8653f22893d11c1a888d3275e86ab523c3011",
        "2fb8967c32b7ffd30a3dea9618d8653f22893d11c1a888d3275e86ab523c3011",
    ),
    ("c02-election", "cwcs"): (
        "6dc3883e0fcdd27af02978c0aa5527821b8457ac1e6d5dbf6a0d8e42f75fd81d",
        "6dc3883e0fcdd27af02978c0aa5527821b8457ac1e6d5dbf6a0d8e42f75fd81d",
    ),
    ("c02-election", "oracle"): (
        "6d2b410dae893de093c14e30f9b397bea162fbb9c1541678a249579f22c5a609",
        "6d2b410dae893de093c14e30f9b397bea162fbb9c1541678a249579f22c5a609",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("flags, digest", list(RUNS.values()), ids=list(RUNS))
def test_run_report_bytes(tmp_path, flags, digest):
    out = tmp_path / "report.json"
    assert main(["run", "--corpus", FIXTURE, "--emit", "json", "--out", str(out), *flags]) == 0
    assert sha256(out.read_bytes()) == digest


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("cluster, aggregator", list(SUMMARIES))
def test_summary_bytes(cluster, aggregator, capped):
    printed = io.StringIO()
    flags = ("--redundancy-cap", "0.95") if capped else ()
    with contextlib.redirect_stdout(printed):
        code = main([
            "summarize", "--corpus", FIXTURE, "--cluster", cluster,
            "--aggregator", aggregator, *flags,
        ])
    assert code == 0
    assert sha256(printed.getvalue().encode("utf-8")) == SUMMARIES[cluster, aggregator][capped]
