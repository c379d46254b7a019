"""The summariser of ``tools/bench_pairs.py`` on canned runs; no benchmark
runs here."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"round_ref": "lower", "tol_headroom_dec": "higher"}


def _pairs(parent, change, name="round_ref"):
    return [{"pair": i + 1, "parent": {name: a, "correct": True},
             "change": {name: b, "correct": True}}
            for i, (a, b) in enumerate(zip(parent, change))]


def test_a_clear_gain_wins_every_pair_beyond_the_parent_spread():
    parent = [46.0, 47.0, 45.0, 48.0, 46.5, 47.5, 45.5, 46.0, 47.0, 46.0]
    change = [41.0, 42.0, 40.5, 41.5, 41.0, 42.5, 40.0, 41.0, 41.5, 41.0]
    s = bench_pairs.summarise(_pairs(parent, change), BETTER)["round_ref"]
    assert s["wins"] == 10 and s["pairs"] == 10 and s["gain"]
    assert s["parent"]["median"] == 46.25 and s["change"]["median"] == 41.0
    assert s["median_diff"] == pytest.approx(5.25)
    # statistics.quantiles(n=4), the exclusive method
    assert (s["parent"]["q1"], s["parent"]["q3"]) == (45.875, 47.125)
    assert s["parent_iqr"] == pytest.approx(1.25)


def test_eight_wins_in_ten_or_a_gap_inside_the_spread_is_no_gain():
    parent = [46.0] * 10
    change = [41.0] * 8 + [47.0, 47.0]
    s = bench_pairs.summarise(_pairs(parent, change), BETTER)["round_ref"]
    assert s["wins"] == 8 and not s["gain"]
    parent = [40.0, 50.0] * 5
    change = [v - 1.0 for v in parent]
    s = bench_pairs.summarise(_pairs(parent, change), BETTER)["round_ref"]
    assert s["wins"] == 10 and s["median_diff"] == pytest.approx(1.0)
    assert s["parent_iqr"] == pytest.approx(10.0) and not s["gain"]


def test_higher_is_better_metrics_and_ties():
    parent = [0.30] * 9 + [0.31]
    change = [0.40] * 10
    s = bench_pairs.summarise(_pairs(parent, change, "tol_headroom_dec"),
                              BETTER)["tol_headroom_dec"]
    assert s["wins"] == 10 and s["gain"]
    assert s["median_diff"] == pytest.approx(0.10)
    # an identical value is not a win, and a metric not in BENCHMARK.json
    # is lower-is-better; booleans are not summarised
    same = bench_pairs.summarise(_pairs([1.0] * 10, [1.0] * 10, "pass"), {})
    assert set(same) == {"pass"}
    assert same["pass"]["wins"] == 0 and not same["pass"]["gain"]


def test_report_lists_every_metric():
    s = bench_pairs.summarise(_pairs([2.0, 3.0], [1.0, 1.5]), BETTER)
    text = bench_pairs.report(s)
    assert "round_ref" in text and "2/2" in text and "yes" not in text


def test_a_metric_worse_than_its_bound_is_flagged():
    # the relative change of the medians, (change - parent) / |parent|, is
    # held to the metric's bound in its worse direction
    bound = {"round_ref": 0.24, "tol_headroom_dec": 0.24}
    cases = [("round_ref", 10.0, 12.5, 0.25, True),
             ("round_ref", 10.0, 12.0, 0.20, False),
             ("round_ref", 10.0, 5.0, -0.5, False),
             ("tol_headroom_dec", 0.5, 0.25, -0.5, True),
             ("tol_headroom_dec", 0.5, 0.75, 0.5, False)]
    for name, parent, change, rel, worse in cases:
        s = bench_pairs.summarise(_pairs([parent] * 10, [change] * 10, name),
                                  BETTER, bound)[name]
        assert s["rel_change"] == pytest.approx(rel), name
        assert s["worse"] is worse and s["bound"] == 0.24, (name, change)
    # a metric without a bound is never flagged; a change from 0 is infinite
    s = bench_pairs.summarise(_pairs([0.0] * 4, [1.0] * 4, "calls"), {},
                              bound)["calls"]
    assert s["bound"] is None and not s["worse"]
    assert s["rel_change"] == math.inf
    text = bench_pairs.report(bench_pairs.summarise(
        _pairs([10.0] * 10, [12.5] * 10), BETTER, bound))
    assert "+25.0%" in text and "24%" in text and "WORSE" in text


def test_bounds_are_read_from_the_benchmark_spec():
    # the end-to-end metrics carry the bounds; per-layer ones have none
    root = _PATH.parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert bench_pairs.bounds(root) == {m["name"]: m["bound"]
                                        for m in spec["end_to_end"]}
    assert bench_pairs.bounds(root / "no-such-checkout") == {}
