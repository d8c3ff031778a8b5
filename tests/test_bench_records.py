"""The BENCH_*.json records at the repository root stay readable.

Each record gives, for every workload BENCHMARK.json names, the number
of parent/change pairs and, for every end-to-end metric, the parent and
change medians and the number of pairs the change won (null where a
backfilled record has no figure).  A record that lists its runs must
agree with them."""

import glob
import json
import os
from statistics import median

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_layout(path):
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    record = _load(path)
    for workload in bench["workloads"]:
        entry = record["workloads"][workload["name"]]
        pairs = entry["pairs"]
        assert type(pairs) is int and pairs > 0
        for metric in bench["end_to_end"]:
            figures = entry[metric["name"]]
            for side in ("parent", "change"):
                assert figures[side]["median"] > 0
            won = figures["change_won"]
            assert won is None or (type(won) is int and 0 <= won <= pairs)
            runs = figures.get("runs")
            if runs is None:
                continue
            assert len(runs) == pairs and all(len(run) == 2 for run in runs)
            for k, side in enumerate(("parent", "change")):
                assert figures[side]["median"] == pytest.approx(
                    median(run[k] for run in runs), abs=1e-4)
            sign = 1 if metric["better"] == "lower" else -1
            assert won == sum(1 for p, c in runs if sign * (p - c) > 0)
