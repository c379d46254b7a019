"""Time the CSV float formatter, ``landaulab._floattext.join_reprs``, on the
orbit table of the benchmark's ``dynamics`` workload, chunk by chunk, and
count the minor page faults of each orbit CSV write of an in-process round.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 tools/time_floattext.py [--seed 1] [--passes 40]

First the script runs one ``dynamics`` round of ``perfbench/workloads.py``
at the seed twice through ``landaulab.cli.main``, as the benchmark does,
with the CSV writer wrapped to time each write and count its minor faults
(``getrusage``); it prints those of the second round.  Then it reads the
round's first orbit CSV back (``repr`` round-trips, so the doubles are
the written ones), checks that ``join_reprs`` of the table gives the
file's bytes, and times ``join_reprs`` on the table's chunks as the writer
cuts them, ``--passes`` times over.  It prints, in ms, the least over the
passes of the mean time of a full chunk and of the whole table, and the
median over the passes of each.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_round(cli, calls, outdir: Path) -> list[dict]:
    """One round of ``calls`` through ``cli.main``; the time and minor
    faults of each CSV write."""
    writes = []
    write_csv = cli._write_csv

    def timed_write(*args):
        faults, t0 = minor_faults(), time.perf_counter()
        write_csv(*args)
        writes.append({"ms": 1e3 * (time.perf_counter() - t0),
                       "faults": minor_faults() - faults})

    cli._write_csv = timed_write
    try:
        for i, call in enumerate(calls):
            argv = [*call.argv, "--quiet", "--no-timestamp",
                    "--json-out", str(outdir / f"call{i}.json")]
            if call.csv:
                argv += ["--csv-out", str(outdir / f"call{i}.csv")]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
    finally:
        cli._write_csv = write_csv
    return writes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=40)
    args = parser.parse_args(argv)

    import numpy as np
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import make_round
    from landaulab import cli
    from landaulab._floattext import join_reprs

    calls = make_round("dynamics", args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        run_round(cli, calls, outdir)
        writes = run_round(cli, calls, outdir)
        first = next(i for i, c in enumerate(calls) if c.csv)
        data = (outdir / f"call{first}.csv").read_bytes()
    print("orbit CSV writes of one round (ms, minor faults):",
          ", ".join(f"{w['ms']:.1f} {w['faults']}" for w in writes))

    header, body = data.split(b"\r\n", 1)
    ncols = header.count(b",") + 1
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    if join_reprs(table.ravel(), ncols) != body:
        print("join_reprs does not reproduce the CSV", file=sys.stderr)
        return 1
    step = cli._CSV_CHUNK // ncols
    chunks = [table[s:s + step].ravel() for s in range(0, len(table), step)]
    full = [i for i, c in enumerate(chunks) if c.size == step * ncols]
    per_chunk, per_table = [], []
    for _ in range(args.passes):
        times = []
        for chunk in chunks:
            t0 = time.perf_counter()
            join_reprs(chunk, ncols)
            times.append(time.perf_counter() - t0)
        per_chunk.append(1e3 * statistics.fmean(times[i] for i in full))
        per_table.append(1e3 * sum(times))
    print(f"{table.shape[0]} x {ncols} table, {len(chunks)} chunks of "
          f"{step * ncols} values, {args.passes} passes")
    print(f"chunk: min {min(per_chunk):.3f} ms, "
          f"median {statistics.median(per_chunk):.3f} ms")
    print(f"table: min {min(per_table):.2f} ms, "
          f"median {statistics.median(per_table):.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
