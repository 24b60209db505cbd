"""The committed benchmark records: every ``BENCH_*.json`` at the root of
the repository names what it measured, how and where, and lists its runs
as parent/change pairs whose first side alternates from pair to pair."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_schema_and_alternating_pairs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert {"what", "command", "host", "order", "sets"} <= record.keys()
    assert record["sets"]
    for entry in record["sets"]:
        assert {"workload", "note", "summary", "runs"} <= entry.keys()
        first: dict[int, str] = {}
        sides: dict[int, list[str]] = {}
        for run in entry["runs"]:
            assert {"workload", "seed", "pair", "position", "side"} <= run.keys()
            assert run["workload"] == entry["workload"]
            assert run["position"] in (0, 1) and run["side"] in ("parent", "change")
            sides.setdefault(run["pair"], []).append(run["side"])
            if run["position"] == 0:
                first[run["pair"]] = run["side"]
        assert sorted(sides) == list(range(len(sides))) and sorted(first) == sorted(sides)
        assert all(sorted(pair) == ["change", "parent"] for pair in sides.values())
        order = [first[pair] for pair in sorted(first)]
        assert all(a != b for a, b in zip(order, order[1:])), entry["note"]
