"""The summariser of ``benchmarks/perfbench_ab.py`` on synthetic runs.

No subprocess and no git: only the pairing, quartile, win-count and
formatting logic that turns paired ``perfbench`` results into the A/B
table.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "perfbench_ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("perfbench_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "cells_per_s", "unit": "cells/ref-s", "better": "higher"},
    {"name": "op_ms.p50", "unit": "ref-ms", "better": "lower"},
]


def _runs(cells, op_ms):
    return [
        {"cells_per_s": {"value": c}, "op_ms.p50": {"value": o}}
        for c, o in zip(cells, op_ms)
    ]


def test_medians_quartiles_and_wins(ab):
    ref = _runs([4.0, 5.0, 6.0, 7.0, 8.0], [100.0, 110.0, 120.0, 130.0, 140.0])
    cand = _runs([6.0, 7.0, 5.0, 9.0, 8.0], [90.0, 100.0, 130.0, 120.0, 140.0])
    rows = {row["name"]: row for row in ab.summarise(ref, cand, METRICS)}

    cells = rows["cells_per_s"]
    assert cells["ref"] == (5.0, 6.0, 7.0)
    assert cells["cand"] == (6.0, 7.0, 8.0)
    assert cells["change"] == pytest.approx(1.0 / 6.0)
    # Pairwise: 6>4, 7>5, 5<6, 9>7, 8=8 (a tie is not a win).
    assert cells["wins"] == 3 and cells["pairs"] == 5

    op = rows["op_ms.p50"]
    assert op["ref"][1] == 120.0 and op["cand"][1] == 120.0
    assert op["change"] == 0.0
    # Lower is better: 90<100, 100<110, 130>120, 120<130, 140=140.
    assert op["wins"] == 3
    assert not cells["gain"] and not op["gain"]


def test_gain_needs_nine_tenths_of_wins_and_a_margin_beyond_the_spread(ab):
    ref = _runs([10.0 + i for i in range(10)], [100.0] * 10)
    ahead = _runs([20.0 + i for i in range(10)], [99.0] * 10)
    rows = {row["name"]: row for row in ab.summarise(ref, ahead, METRICS)}
    # cells: 10/10 wins, medians 14.5 -> 24.5, parent quartiles 4.5 apart.
    assert rows["cells_per_s"]["wins"] == 10 and rows["cells_per_s"]["gain"]
    # op: 10/10 wins by 1 ms and the parent runs have no spread at all.
    assert rows["op_ms.p50"]["gain"]
    close = _runs([13.0 + i for i in range(10)], [100.0] * 9 + [90.0])
    rows = {row["name"]: row for row in ab.summarise(ref, close, METRICS)}
    # cells: every pair won, but 17.5 - 14.5 = 3 is inside the 4.5 spread.
    assert rows["cells_per_s"]["wins"] == 10 and not rows["cells_per_s"]["gain"]
    # op: one win of ten.
    assert rows["op_ms.p50"]["wins"] == 1 and not rows["op_ms.p50"]["gain"]


def test_single_pair_and_table(ab):
    rows = ab.summarise(_runs([4.0], [200.0]), _runs([6.0], [150.0]), METRICS)
    assert rows[0]["ref"] == (4.0, 4.0, 4.0)
    assert rows[0]["wins"] == 1 and rows[1]["wins"] == 1
    table = ab.format_rows(rows).splitlines()
    assert len(table) == 3
    assert table[1].split()[:2] == ["cells_per_s", "cells/ref-s"]
    # One pair won is not a gain: a claim needs at least ten pairs.
    assert "+50.0%" in table[1] and "1/1" in table[1] and table[1].endswith("no")
    assert "-25.0%" in table[2]


def test_mismatched_or_empty_runs_rejected(ab):
    with pytest.raises(ValueError):
        ab.summarise(_runs([1.0], [1.0]), _runs([1.0, 2.0], [1.0, 2.0]), METRICS)
    with pytest.raises(ValueError):
        ab.summarise([], [], METRICS)


def test_metrics_come_from_the_benchmark_declaration(ab):
    names = [spec["name"] for spec in ab.end_to_end_metrics()]
    assert "cells_per_s" in names and "peak_rss_mb" in names
    assert all(spec["better"] in ("higher", "lower") for spec in ab.end_to_end_metrics())
