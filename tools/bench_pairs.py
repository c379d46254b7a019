"""Compare two checkouts on one perfbench workload in alternating pairs of
runs, and say whether the change wins.

Usage, from anywhere::

    python3 tools/bench_pairs.py PARENT CHANGE --workload dynamics --seed 1 \\
        --pairs 10 [--trace 1] [--json BENCH.json]

PARENT and CHANGE are the roots of two checkouts.  Each run is the
checkout's own ``perfbench/run.py --workload W --seed S --trace T``, at
its default run length, started in a fresh interpreter from that root;
pair i runs the parent first when i is odd and the change first when it
is even.  The two ``perfbench/`` trees must be byte-identical, or
nothing runs.  Before every run each ``__pycache__`` under the
checkout's ``src/`` is deleted and ``PYTHONDONTWRITEBYTECODE=1`` is set,
so that ``setup_s`` always times the compilation of the sources, never
cached bytecode.

For every metric the script prints the median and quartiles
(``statistics.quantiles``, n=4) of each side, the pairs the change wins
(strictly better in the direction ``BENCHMARK.json`` gives the metric) and
the verdict of a gain claim: at least 9 wins in 10 pairs, and the medians
apart by more than the parent's interquartile range, in the better
direction.  ``--json`` merges the pairs and that summary into a JSON file
under ``workloads["W@seedS"]`` (``traced`` for ``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def tree_digest(root: Path) -> dict:
    """sha256 of every file under root, by relative path, caches left out."""
    return {str(p.relative_to(root)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts}


def directions(root: Path) -> dict:
    """Metric name -> "lower" or "higher", from the checkout's
    BENCHMARK.json; a metric it does not list is lower-is-better."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run of the checkout at root: its metrics, and the
    median round wall time, median reference time and round count of its
    result.json."""
    for cache in (root / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)], cwd=root, env=env,
        capture_output=True, text=True, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((root / ".bench_out" / f"{workload}-seed{seed}-trace"
                         f"{trace}" / "result.json").read_text())
    run = {name: m["value"] for name, m in last["metrics"].items()}
    run.update(round_s=detail["round_s"]["median"],
               ref_s=detail["reference_s"]["median"], rounds=detail["rounds"],
               failed=last["failed"], attempted=last["attempted"],
               correct=last["correct"])
    return run


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: list[dict], better: dict) -> dict:
    """Per metric both sides' quartiles, the change's wins and the verdict
    of a gain claim, from pairs of the form {"parent": run, "change": run}
    (a run maps metric names to numbers)."""
    out = {}
    for name in pairs[0]["parent"]:
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in values["parent"] + values["change"]):
            continue
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        q = {side: quartiles(values[side]) for side in SIDES}
        # positive when the change is better
        diff = sign * (q["parent"]["median"] - q["change"]["median"])
        iqr = q["parent"]["q3"] - q["parent"]["q1"]
        wins = sum(sign * (p["parent"][name] - p["change"][name]) > 0
                   for p in pairs)
        out[name] = {**q, "wins": wins, "pairs": len(pairs),
                     "median_diff": diff, "parent_iqr": iqr,
                     "gain": wins >= math.ceil(0.9 * len(pairs))
                     and diff > iqr}
    return out


def report(summary: dict) -> str:
    lines = [f"{'metric':<40} {'parent median [q1, q3]':>34} "
             f"{'change median [q1, q3]':>34}  wins  gain"]
    for name, s in summary.items():
        sides = [f"{s[side]['median']:.6g} [{s[side]['q1']:.6g}, "
                 f"{s[side]['q3']:.6g}]" for side in SIDES]
        lines.append(f"{name:<40} {sides[0]:>34} {sides[1]:>34}  "
                     f"{s['wins']:>2}/{s['pairs']:<2} "
                     f"{'yes' if s['gain'] else 'no'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if tree_digest(roots["parent"] / "perfbench") \
            != tree_digest(roots["change"] / "perfbench"):
        print("the two perfbench/ trees differ; refusing to compare",
              file=sys.stderr)
        return 2
    pairs = []
    for i in range(1, args.pairs + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        pair = {"pair": i, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, args.seed,
                                  args.trace)
        pairs.append(pair)
        print(f"pair {i}: " + "  ".join(
            f"{side} round_ref={pair[side].get('round_ref', math.nan):.4g}"
            for side in SIDES), flush=True)
    summary = summarise(pairs, directions(roots["change"]))
    print(report(summary))
    if args.json:
        data = json.loads(args.json.read_text()) if args.json.exists() else {}
        key = "traced" if args.trace else "workloads"
        data.setdefault(key, {})[f"{args.workload}@seed{args.seed}"] = {
            "pairs": pairs, "summary": summary}
        args.json.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
