"""Print the sha256 of the ``--no-timestamp`` JSON report and CSV output of
every landaulab campaign, so that two checkouts can be compared byte for
byte by diffing this script's output.

Usage, from the root of a checkout::

    PYTHONPATH=src python tools/report_digests.py > digests.txt

Eight runs: every campaign at small settings; every campaign with a
non-default parameter set (negative charge, non-unit hbar, off-origin x0,
sheared gauge with a cubic gauge function), of which each campaign takes
the parts it reads; gauge-scan with the Simpson rule and ``--dump-grid``;
the dynamics campaigns at their own settings (verify-algebra at the
default ``--nmax 16`` with the variant parameters, an rk4 orbit, the
zero-momentum orbit, heisenberg-demo at the default ``--grid 80`` and
basis-change at ``--grid 56``, whose line integrals then run on 56 and 60
nodes, both with the variant parameters); and
reproduce-tables at ``--nmax 16``, whose closed-vs-matrix check then spans
all 117 angular states, with the variant parameters and non-unit mass and
field; and gauge-scan at ``--nmax 16`` over the seeded default gauges with
negative charge, non-unit hbar, mass and field and off-origin x0, whose
matrix-route deviations are rounding-level, so the last bits of the
canonical-operator matrix entries show in the report; and the benchmark's
shapes with the variant parameters: a default-length (10,000-step) boris
orbit with non-unit mass and field, an off-origin centre and its 10,001-row
CSV, and heisenberg-demo with the Simpson rule on 120 intervals, next to
a 200-step unit-parameter orbit about the far centre (1000, 0), whose
equation-of-motion residual must not grow with the centre's distance; and
every campaign at its defaults, which are the acceptance settings.  Each
output line is ``<run> <campaign> <file> <exit code> <sha256>``; a file a
campaign does not write reads ``-``.

A last run, ``support``, pins the first integrand that fails its
boundary-decay check, in every campaign with rows that run on the
``--grid`` rule: each call exits 2 mid-run, and the line reads ``stderr``
and the sha256 of the one-line error message.  reproduce-tables and
basis-change, whose translation-state rows are never certified, fail it at
``--grid 10``, and basis-change also at ``--grid 14`` and ``--grid 20``.
gauge-scan and heisenberg-demo rows are all certified, so they run on
``--grid`` only where it is no larger than their certified node count:
gauge-scan at ``--scan-levels 4`` (certified on 14-15 nodes) with
``--grid 10``, and heisenberg-demo (4 nodes) with ``--grid 4``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from landaulab.cli import main

SMALL = {
    "verify-algebra": ["--nmax", "8"],
    "gauge-scan": ["--grid", "40", "--scan-levels", "2", "--nmax", "8",
                   "--dump-grid"],
    "reproduce-tables": ["--grid", "56", "--nmax", "14"],
    "basis-change": ["--grid", "64", "--dump-grid"],
    "classical-sim": ["--steps", "2000"],
    "heisenberg-demo": ["--grid", "48"],
}

PHYSICAL = ["--charge", "-1", "--hbar", "0.6"]
ORIGIN = ["--x0", "0.3,-0.2"]
GAUGE = ["--alpha", "0.37", "--phi", "0.05*u1^2*u2 - 0.1*u1 + 0.02*u2^3"]
# the parts of the variant parameter set each campaign reads
VARIANT = {
    "verify-algebra": PHYSICAL + ORIGIN,
    "gauge-scan": PHYSICAL + ORIGIN + GAUGE,
    "reproduce-tables": PHYSICAL + ORIGIN + GAUGE,
    "basis-change": PHYSICAL + ORIGIN + GAUGE,
    "classical-sim": PHYSICAL + ORIGIN,
    "heisenberg-demo": PHYSICAL,
}

RUNS = [
    ("small", [[name, *args] for name, args in SMALL.items()]),
    ("variant", [[name, *args, *VARIANT[name]]
                 for name, args in SMALL.items()]),
    ("simpson", [["gauge-scan", "--scheme", "simpson", "--grid", "80",
                  "--scan-levels", "2", "--nmax", "8", "--dump-grid"]]),
    ("dynamics", [["verify-algebra", *VARIANT["verify-algebra"]],
                  ["classical-sim", "--method", "rk4", "--steps", "2000"],
                  ["classical-sim", "--energy", "0", "--centre", "0.3,0.4"],
                  ["heisenberg-demo", *VARIANT["heisenberg-demo"]],
                  ["basis-change", "--grid", "56", *VARIANT["basis-change"]]]),
    ("tables", [["reproduce-tables", "--nmax", "16", "--grid", "56",
                 *VARIANT["reproduce-tables"], "--mass", "1.3", "--bfield",
                 "0.7"]]),
    ("scan", [["gauge-scan", "--scan-levels", "2", "--grid", "40", "--nmax",
               "16", "--seed", "90917", "--charge", "-1", "--hbar", "0.6",
               "--mass", "1.3", "--bfield", "0.7", "--x0", "0.3,-0.2"]]),
    ("full", [["classical-sim", *VARIANT["classical-sim"], "--mass", "1.3",
               "--bfield", "0.7", "--energy", "1.1", "--centre", "0.5,-0.1"],
              ["heisenberg-demo", "--scheme", "simpson", "--grid", "120",
               *VARIANT["heisenberg-demo"]],
              ["classical-sim", "--centre", "1e3,0", "--energy", "0.5",
               "--steps", "200"]]),
    ("acceptance", [[name] for name in SMALL]),
]

SUPPORT = [["gauge-scan", "--grid", "10", "--scan-levels", "4"],
           ["basis-change", "--grid", "10"],
           ["heisenberg-demo", "--grid", "4"],
           ["reproduce-tables", "--grid", "10", "--nmax", "12"],
           ["basis-change", "--grid", "14"],
           ["basis-change", "--grid", "20"]]


def _digest(path: Path) -> str:
    if not path.exists():
        return "-"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main_digests() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for run, calls in RUNS:
            for k, argv in enumerate(calls):
                stem = f"{run}-{k}-{argv[0]}"
                out_json = Path(tmp, f"{stem}.json")
                out_csv = Path(tmp, f"{stem}.csv")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv + ["--quiet", "--no-timestamp",
                                        "--json-out", str(out_json),
                                        "--csv-out", str(out_csv)])
                for kind, path in (("json", out_json), ("csv", out_csv)):
                    print(run, argv[0], kind, code, _digest(path))
    for argv in SUPPORT:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--quiet", "--no-timestamp"])
            except SystemExit as exc:
                code = exc.code
        message = err.getvalue().splitlines()[-1:]
        print("support", argv[0], "stderr", code,
              hashlib.sha256("".join(message).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
