"""The committed benchmark records, ``BENCH_<workload>.json`` at the
repository root: one per workload ``BENCHMARK.json`` declares, each with
the parent's and the change's result lines (untraced and traced)."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_record_holds_every_end_to_end_metric(workload):
    record = json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    assert record["workload"] == workload
    assert isinstance(record["seed"], int)
    for key in ("command", "traced_command", "machine"):
        assert record[key]
    for side in ("parent", "change"):
        assert record[side]["commit"]
        result = record[side]["result"]
        assert result["correct"] is True
        for metric in BENCHMARK["end_to_end"]:
            value = result["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert math.isfinite(value["value"])
        assert record[side]["traced"]["correct"] is True
