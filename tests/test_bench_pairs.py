"""The pair statistics of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_lower_is_better():
    s = bench_pairs.summarise([10.0, 11.0, 12.0, 13.0, 14.0], [9.0, 10.0, 11.0, 14.0, 12.0], "lower")
    assert s["parent_quartiles"] == [11.0, 12.0, 13.0]
    assert s["change_quartiles"] == [10.0, 11.0, 12.0]
    assert s["change_better_pairs"] == 4 and s["pairs"] == 5  # pair 3 is lost
    assert s["change_over_parent"] == pytest.approx(11.0 / 12.0, abs=1e-4)
    assert s["median_gap_over_parent_iqr"] == 0.5


def test_higher_is_better_and_ties_count_for_neither():
    s = bench_pairs.summarise([1.0, 1.0, 2.0], [1.0, 2.0, 1.0], "higher")
    assert s["change_better_pairs"] == 1
    assert s["median_gap_over_parent_iqr"] == 0.0  # equal medians over an IQR of 0.5


def test_constant_parent_has_no_gap_ratio():
    s = bench_pairs.summarise([1.0, 1.0], [1.0, 1.0], "higher")
    assert s["median_gap_over_parent_iqr"] is None and s["change_better_pairs"] == 0
    one = bench_pairs.summarise([2.0], [1.0], "lower")
    assert one["parent_quartiles"] == [2.0, 2.0, 2.0] and one["change_better_pairs"] == 1
