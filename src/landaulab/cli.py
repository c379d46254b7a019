"""Command-line entry point: verification campaigns with JSON reports and
CSV outputs.

Subcommands: verify-algebra, gauge-scan, reproduce-tables, classical-sim,
basis-change, heisenberg-demo.  Exit code 0 if and only if every check of
the campaign passed, 1 if a check failed, and 2 with a one-line message on
invalid input, a quadrature grid too small for the integrands included.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import campaigns as cp
from . import classical as cl
from . import fockspace as fk
from . import quadrature as quad
from . import waves as wv
from .params import GaugeChoice, PhysicalParams, parse_poly

__all__ = ["main", "build_parser"]


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated reals")
    return float(parts[0]), float(parts[1])


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    phys = common.add_argument_group("physical parameters")
    phys.add_argument("--mass", type=float, default=1.0)
    phys.add_argument("--charge", type=float, default=1.0)
    phys.add_argument("--bfield", type=float, default=1.0)
    phys.add_argument("--hbar", type=float, default=1.0)
    gauge = common.add_argument_group("gauge choice")
    gauge.add_argument("--alpha", type=float, default=0.0,
                       help="shear parameter of the gauge family")
    gauge.add_argument("--phi", type=str, default="0",
                       help="polynomial gauge function in u1, u2")
    gauge.add_argument("--x0", type=_pair, default=(0.0, 0.0),
                       help="plane origin 'x1,x2'")
    num = common.add_argument_group("numerics")
    num.add_argument("--nmax", type=int, default=16,
                     help="Fock truncation per sector")
    num.add_argument("--margin", type=int, default=3,
                     help="interior margin for truncated-operator checks")
    num.add_argument("--grid", type=int, default=80,
                     help="quadrature nodes per axis")
    num.add_argument("--scheme", choices=["gh", "simpson"], default="gh")
    num.add_argument("--tol", type=float, default=None,
                     help="override the campaign's primary tolerance")
    num.add_argument("--seed", type=int, default=7)
    out = common.add_argument_group("output")
    out.add_argument("--json-out", type=str, default=None)
    out.add_argument("--csv-out", type=str, default=None)
    out.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp for byte-reproducible reports")
    out.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="landaulab",
        description="Numerical verification of planar charged-particle "
                    "dynamics in a uniform magnetic field across a general "
                    "family of gauge choices.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-algebra", parents=[common],
                   help="commutator suite and charge relation on the "
                        "truncated Fock space")
    scan = sub.add_parser("gauge-scan", parents=[common],
                          help="cross-gauge invariance of physical matrix "
                               "elements; canonical-operator decompositions")
    scan.add_argument("--dump-grid", action="store_true",
                      help="write a sampled wave function to --csv-out")
    scan.add_argument("--scan-levels", type=int, default=4,
                      help="largest level and angular index in the scan")
    sub.add_parser("reproduce-tables", parents=[common],
                   help="closed form vs operator matrices vs quadrature for "
                        "both eigenbasis tables")
    sim = sub.add_parser("classical-sim", parents=[common],
                         help="integrate an orbit and track the conserved "
                              "charges")
    sim.add_argument("--energy", type=float, default=None)
    sim.add_argument("--centre", type=_pair, default=None,
                     help="guiding centre 'x1,x2'")
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--steps", type=int, default=None)
    sim.add_argument("--method", choices=["boris", "rk4"], default="boris")
    bc = sub.add_parser("basis-change", parents=[common],
                        help="basis-change coefficients: closed form, "
                             "orthonormality, reconstruction")
    bc.add_argument("--dump-grid", action="store_true",
                    help="write a sampled wave function to --csv-out")
    sub.add_parser("heisenberg-demo", parents=[common],
                   help="flat-connection representation conjugation demo")
    return parser


def _physical(args, parser) -> PhysicalParams:
    try:
        return PhysicalParams(m=args.mass, q=args.charge, B=args.bfield,
                              hbar=args.hbar)
    except ValueError as exc:
        parser.error(str(exc))


def _gauge(args, parser) -> GaugeChoice:
    try:
        phi = parse_poly(args.phi)
    except ValueError as exc:  # PolyParseError or DegreeOverflowError
        parser.error(f"--phi: {exc}")
    try:
        return GaugeChoice(alpha=args.alpha, x0=args.x0, phi=phi)
    except ValueError as exc:
        parser.error(str(exc))


_USES_NMAX = ("verify-algebra", "gauge-scan", "reproduce-tables")
_USES_GRID = ("gauge-scan", "reproduce-tables", "basis-change",
              "heisenberg-demo")


def _require(ok: bool, message: str):
    if not ok:
        raise ValueError(message)


def _check_numerics(args, parser, p: PhysicalParams):
    """Reject out-of-range numerics before a campaign starts, with the
    message of the library check that would otherwise fail mid-campaign."""
    checks = []
    if args.command in _USES_NMAX:
        checks.append(("--nmax", lambda: fk.FockBasis(args.nmax)))
    if args.command == "verify-algebra":
        checks.append(("--margin", lambda: fk.FockBasis(
            args.nmax).interior_indices(args.margin)))
    # labels reach n+ = twice the largest index; the scan's cubic gauge
    # needs nmax >= 3
    if args.command == "reproduce-tables":
        top = 2 * cp.TABLE_INDEX_TOP
        checks.append(("--nmax", lambda: _require(
            args.nmax >= top, f"reproduce-tables needs nmax >= {top}")))
    if args.command == "gauge-scan":
        lv, top = args.scan_levels, max(2 * args.scan_levels, 3)
        lv_max = wv.MAX_QUANTUM_NUMBER // 2
        checks += [("--scan-levels", lambda: _require(
                        lv >= 0, "levels must be nonnegative")),
                   ("--scan-levels", lambda: _require(lv <= lv_max, (
                       f"levels above {lv_max} reach quantum numbers beyond "
                       f"{wv.MAX_QUANTUM_NUMBER}"))),
                   ("--nmax", lambda: _require(args.nmax >= top, (
                       f"--scan-levels {lv} needs nmax >= {top}")))]
    checks.append(("--seed", lambda: np.random.default_rng(args.seed)))
    checks.append(("--tol", lambda: _require(
        args.tol is None or 0.0 <= args.tol < math.inf,
        "tolerance must be finite and nonnegative")))
    if args.command in _USES_GRID:
        rule = (quad.Grid2.gauss_hermite if args.scheme == "gh"
                else quad.Grid2.simpson)
        checks.append(("--grid", lambda: rule(args.grid)))
    if args.command == "classical-sim":
        checks += [
            ("--steps", lambda: _require(args.steps is None or args.steps >= 1,
                                         "need at least one step")),
            ("--dt", lambda: _require(args.dt is None
                                      or 0.0 < args.dt < math.inf,
                                      "dt must be positive and finite")),
            ("--energy", lambda: args.energy is None
             or cl.TrajectoryParams(E=args.energy)),
            ("--energy", lambda: _require(
                args.energy is None or 2.0 * p.m * args.energy < math.inf,
                "the momentum sqrt(2 m E) overflows")),
        ]
    for flag, check in checks:
        try:
            check()
        except ValueError as exc:
            parser.error(f"{flag}: {exc}")


# what makes csv.writer quote a field under its default dialect: the
# delimiter, the quote character or a line-end character
_QUOTED_CHARS = frozenset(',"\r\n')


def _check_field(field, ncols: int):
    if type(field) is float:
        return
    if type(field) is not str:
        raise TypeError(f"CSV field {field!r} is neither a float nor a str")
    if not _QUOTED_CHARS.isdisjoint(field) or (ncols == 1 and not field):
        raise ValueError(f"CSV field {field!r} would need quoting")


def _write_csv(path: str, header: list[str], rows):
    """Write ``header`` and ``rows`` as the bytes ``csv.writer`` writes with
    its default dialect, formatting the whole table in one pass.

    ``rows`` is a 2-D float64 array or an iterable of rows of Python floats,
    each written as its repr, and strings.  A field ``csv.writer`` would
    quote raises ValueError, as does a row whose length differs from the
    header's."""
    ncols = len(header)
    for name in header:
        _check_field(name, ncols)
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.float64 or rows.ndim != 2 \
                or rows.shape[1] != ncols:
            raise ValueError(f"expected a float64 array of {ncols} columns, "
                             f"got {rows.dtype} of shape {rows.shape}")
        nrows, fields = len(rows), rows.ravel().tolist()
    else:
        nrows, fields = 0, []
        for row in rows:
            if len(row) != ncols:
                raise ValueError(f"row of {len(row)} fields under a header "
                                 f"of {ncols}")
            nrows += 1
            fields += row
        for field in fields:
            _check_field(field, ncols)
    line = ",".join(["%s"] * ncols) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(line * nrows % tuple(fields))


def _dump_grid_rows(psi: wv.WaveForm, extent: float, n: int = 41):
    xs = np.linspace(psi.origin[0] - extent, psi.origin[0] + extent, n)
    ys = np.linspace(psi.origin[1] - extent, psi.origin[1] + extent, n)
    rows = np.empty((n, n, 4))
    rows[:, :, 0] = xs[:, None]
    rows[:, :, 1] = ys[None, :]
    for k, x in enumerate(xs):
        vals = psi.value(x, ys)
        rows[k, :, 2] = vals.real
        rows[k, :, 3] = vals.imag
    return rows.reshape(n * n, 4)


def _campaign(args, p, g, scheme: str, tol: dict):
    """Run the campaign ``args`` names; returns its report and the header
    and rows of its CSV output, both None when it writes none."""
    csv_header = rows = None
    if args.command == "verify-algebra":
        report = cp.run_verify_algebra(p, nmax=args.nmax, margin=args.margin,
                                       x0=args.x0, **tol)
    elif args.command == "gauge-scan":
        gauges = cp.default_gauges(args.seed, x0=args.x0)
        report = cp.run_gauge_scan(p, gauges, nmax=args.nmax,
                                   grid_k=args.grid, scheme=scheme,
                                   seed=args.seed, n_top=args.scan_levels,
                                   l_top=args.scan_levels, **tol)
        if args.dump_grid:
            csv_header = ["x1", "x2", "re", "im"]
            rows = _dump_grid_rows(wv.fock_state(g, p, 1, 0),
                                   4.0 * p.magnetic_length)
    elif args.command == "reproduce-tables":
        report, table_rows = cp.run_reproduce_tables(
            p, nmax=args.nmax, grid_k=args.grid, scheme=scheme, gauge=g,
            **tol)
        csv_header = ["basis", "operator", "indices", "closed_form_re",
                      "closed_form_im", "computed_re", "computed_im",
                      "abs_error"]
        rows = [(basis, op, "/".join(str(i) for i in idx),
                 complex(closed).real, complex(closed).imag,
                 complex(val).real, complex(val).imag, err)
                for basis, op, idx, closed, val, err in table_rows]
    elif args.command == "classical-sim":
        tp = None
        if args.energy is not None or args.centre is not None:
            tp = cl.TrajectoryParams(
                E=args.energy if args.energy is not None else 0.5,
                xc=args.centre if args.centre is not None else (0.0, 0.0))
        report, sim_rows = cp.run_classical_sim(
            p, tp, dt=args.dt, steps=args.steps, method=args.method,
            x0=args.x0, seed=args.seed, **tol)
        csv_header = ["t", "x1", "x2", "p1", "p2", "E", "T1", "T2", "M3"]
        rows = sim_rows
    elif args.command == "basis-change":
        report = cp.run_basis_change(p, gauge=g, grid_k=args.grid,
                                     scheme=scheme, seed=args.seed, **tol)
        if args.dump_grid:
            csv_header = ["x1", "x2", "re", "im"]
            rows = _dump_grid_rows(wv.fock_state(g, p, 2, 1),
                                   4.0 * p.magnetic_length)
    elif args.command == "heisenberg-demo":
        report = cp.run_heisenberg_demo(p, grid_k=args.grid, scheme=scheme,
                                        **tol)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(2)
    return report, csv_header, rows


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    p = _physical(args, parser)
    _check_numerics(args, parser, p)
    g = _gauge(args, parser)
    scheme = "gauss_hermite" if args.scheme == "gh" else "simpson"
    # --tol overrides the campaign's primary tolerance, its only one
    tol = {} if args.tol is None else {"tol": args.tol}
    try:
        report, csv_header, rows = _campaign(args, p, g, scheme, tol)
    except quad.SupportOverflowError as exc:
        parser.error(f"--grid: {exc}")
    except cl.NonFiniteOrbitError as exc:
        parser.error(f"--dt: {exc}")

    if not args.no_timestamp:
        report.stamp()
    if not args.quiet:
        for line in report.summary_lines():
            print(line)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json())
    if args.csv_out and rows is not None:
        _write_csv(args.csv_out, csv_header, rows)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
