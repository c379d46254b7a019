"""Fast self-test of the benchmark at tiny campaign sizes.

    python3 -m pytest -q perfbench

Checks the result line against BENCHMARK.json (every metric name and
unit, nothing else), that a traced and an untraced run give identical
report digests (wrapping changes no result), that span self times account
for each traced campaign call, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

sys.path.insert(0, str(HERE))
from workloads import make_round  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module",
                params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    out = {}
    for trace in (0, 1):
        proc = run_bench(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = json.loads(
            (ROOT / ".bench_out" / f"{request.param}-seed{SEED}-trace{trace}"
             / "result.json").read_text())
        out[trace] = (last, detail)
    return out


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_spec(runs, trace, kind):
    last, _ = runs[trace]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for v in last["metrics"].values():
        assert set(v) == {"value", "unit"}
        assert isinstance(v["value"], (int, float))
        assert math.isfinite(v["value"])


def test_end_to_end_metrics_are_positive(runs):
    last, _ = runs[0]
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_tracing_changes_no_report(runs):
    (_, plain), (_, traced) = runs[0], runs[1]
    assert plain["digests"] == traced["digests"]
    assert all(plain["digests"])
    assert traced["digests_consistent"]


def test_spans_account_for_campaign_time(runs):
    _, traced = runs[1]
    assert traced["unaccounted_share"] < 1e-9


def test_rounds_follow_the_seed():
    for w in SPEC["workloads"]:
        assert make_round(w["name"], 5) == make_round(w["name"], 5)
        assert make_round(w["name"], 5) != make_round(w["name"], 6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
