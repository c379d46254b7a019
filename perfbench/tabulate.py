"""Write ``baseline/README.md``: the baseline's end-to-end and per-layer
tables, read from ``baseline/<workload>-trace<t>.json``.

    python3 perfbench/tabulate.py
"""

from __future__ import annotations

import json
from pathlib import Path

BASE = Path(__file__).resolve().parent / "baseline"
WORKLOADS = ("scan", "tables", "dynamics")


def fmt(v) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.4g}"


def table(results: dict, keys, skip_zero: bool = False) -> list[str]:
    lines = ["| metric | " + " | ".join(WORKLOADS) + " |",
             "|---|" + "---|" * len(WORKLOADS)]
    for k in keys:
        vals = [results[w]["metrics"][k] for w in WORKLOADS]
        if skip_zero and not any(vals):
            continue
        lines.append(f"| `{k}` | " + " | ".join(map(fmt, vals)) + " |")
    return lines


def main():
    plain = {w: json.loads((BASE / f"{w}-trace0.json").read_text())
             for w in WORKLOADS}
    traced = {w: json.loads((BASE / f"{w}-trace1.json").read_text())
              for w in WORKLOADS}
    env = plain[WORKLOADS[0]]["environment"]
    lines = [
        "# Baseline at seed 1", "",
        f"Commit `{env['commit']}`; Python {env['python']}, numpy "
        f"{env['numpy']}, BLAS {env['blas']} with {env['blas_threads']} "
        f"threads, nproc {env['nproc']}, {env['machine']}. One 35-s run per "
        "table column; timings are medians over the rounds of that run. The "
        "JSON files beside this one hold every value, the per-campaign "
        "quartiles and the report digests.", "",
        "## End to end (`--trace 0`)", "",
        *table(plain, plain[WORKLOADS[0]]["metrics"]),
        "", "Per campaign, untraced wall time (`median [q1, q3] n`, s):", "",
    ]
    for w in WORKLOADS:
        for c, q in plain[w]["campaigns"].items():
            lines.append(f"- `{w}` / `{c}`: {q['median']:.4f} "
                         f"[{q['q1']:.4f}, {q['q3']:.4f}] n={q['n']}")
    lines += ["", "## Per layer (`--trace 1`)", "",
              "Per round; rows that are 0 on every workload are left out.", "",
              *table(traced, traced[WORKLOADS[0]]["metrics"], skip_zero=True)]
    (BASE / "README.md").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
