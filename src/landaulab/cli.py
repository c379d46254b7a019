"""Command-line entry point: verification campaigns with JSON reports and
CSV outputs.

Subcommands: verify-algebra, gauge-scan, reproduce-tables, classical-sim,
basis-change, heisenberg-demo, each taking only the flags its campaign
reads.  Exit code 0 if and only if every check of the campaign passed, 1 if
a check failed, and 2 with a one-line message on invalid input, a flag the
subcommand does not take, a grid too small for the integrands or above the
largest rule, and a truncation below a gauge scan's exact entries included.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache

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
    # every flag of every campaign, in help order
    specs = {
        **{flag: dict(type=float, default=1.0)
           for flag in ("--mass", "--charge", "--bfield", "--hbar")},
        "--alpha": dict(type=float, default=0.0,
                        help="shear parameter of the gauge family"),
        "--phi": dict(type=str, default="0",
                      help="polynomial gauge function in u1, u2"),
        "--x0": dict(type=_pair, default=(0.0, 0.0),
                     help="plane origin 'x1,x2'; a negative x1 is written "
                          "--x0=-0.3,0.2"),
        "--nmax": dict(type=int, default=16,
                       help="Fock truncation per sector"),
        "--grid": dict(type=int, default=80,
                       help="quadrature nodes per axis, at most 370"),
        "--scheme": dict(choices=["gh", "simpson"], default="gh"),
        "--seed": dict(type=int, default=7),
        "--scan-levels": dict(type=int, default=4, help="largest level "
                              "and angular index in the scan"),
        "--energy": dict(type=float, default=None),
        "--centre": dict(type=_pair, default=None,
                         help="guiding centre 'x1,x2'; a negative x1 is "
                              "written --centre=-0.3,0.2"),
        "--dt": dict(type=float, default=None),
        "--steps": dict(type=int, default=None),
        "--method": dict(choices=["boris", "rk4"], default="boris"),
        "--dump-grid": dict(action="store_true", help="write a sampled "
                            "wave function to --csv-out"),
        "--tol": dict(type=float, default=None,
                      help="override the campaign's primary tolerance"),
        "--json-out": dict(type=str, default=None),
        "--csv-out": dict(type=str, default=None),
        "--no-timestamp": dict(action="store_true", help="omit the "
                               "timestamp for byte-reproducible reports"),
        "--quiet": dict(action="store_true"),
    }
    # each campaign with the flags it reads besides these, which all read
    every = ("--mass --charge --bfield --hbar --tol --json-out --csv-out "
             "--no-timestamp --quiet")
    commands = {
        "verify-algebra": ("commutator suite and charge relation on the "
                           "truncated Fock space", "--x0 --nmax"),
        "gauge-scan": ("cross-gauge invariance of physical matrix elements; "
                       "canonical-operator decompositions",
                       "--alpha --phi --x0 --nmax --grid --scheme --seed "
                       "--dump-grid --scan-levels"),
        "reproduce-tables": ("closed form vs operator matrices vs quadrature "
                             "for both eigenbasis tables",
                             "--alpha --phi --x0 --nmax --grid --scheme"),
        "classical-sim": ("integrate an orbit and track the conserved "
                          "charges", "--x0 --seed --energy --centre --dt "
                          "--steps --method"),
        "basis-change": ("basis-change coefficients: closed form, "
                         "orthonormality, reconstruction",
                         "--alpha --phi --x0 --grid --scheme --seed "
                         "--dump-grid"),
        "heisenberg-demo": ("flat-connection representation conjugation "
                            "demo", "--grid --scheme"),
    }
    # one action a flag, made in a group (whose add_argument, unlike a
    # parser's, builds no help formatter) and shared by each subcommand
    # that takes it
    group = argparse.ArgumentParser(add_help=False).add_argument_group()
    actions = {flag: group.add_argument(flag, **keywords)
               for flag, keywords in specs.items()}
    parser = argparse.ArgumentParser(
        prog="landaulab",
        description="Numerical verification of planar charged-particle "
                    "dynamics in a uniform magnetic field across a general "
                    "family of gauge choices.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, own) in commands.items():
        takes = set(f"{every} {own}".split())
        sp = sub.add_parser(command, help=summary)
        for flag, action in actions.items():
            if flag in takes:
                sp._add_action(action)
    return parser


# built once: parsing leaves a parser as it was
_parser = cache(build_parser)


def _physical(args, parser) -> PhysicalParams:
    try:
        return PhysicalParams(m=args.mass, q=args.charge, B=args.bfield,
                              hbar=args.hbar)
    except ValueError as exc:
        parser.error(str(exc))


def _gauge(args, parser) -> GaugeChoice:
    """The gauge the subcommand's gauge flags choose; a flag it does not
    take keeps the gauge's default."""
    given = {name: getattr(args, name) for name in ("alpha", "x0")
             if hasattr(args, name)}
    if hasattr(args, "phi"):
        try:
            given["phi"] = parse_poly(args.phi)
        except ValueError as exc:  # PolyParseError or DegreeOverflowError
            parser.error(f"--phi: {exc}")
    try:
        return GaugeChoice(**given)
    except ValueError as exc:
        parser.error(str(exc))


def _require(ok: bool, message: str):
    if not ok:
        raise ValueError(message)


def _check_numerics(args, parser, p: PhysicalParams):
    """Reject out-of-range numerics before a campaign starts, with the
    message of the library check that would otherwise fail mid-campaign;
    each flag is checked where the subcommand takes it."""
    takes = vars(args)
    checks = []
    if "nmax" in takes:
        checks.append(("--nmax", lambda: fk.FockBasis(args.nmax)))
    if args.command == "verify-algebra":
        checks.append(("--x0", lambda: _check_positions(p, args.nmax,
                                                        args.x0)))
    if "scan_levels" in takes:
        checks.append(("--scan-levels", lambda: _require(
            args.scan_levels >= 0, "levels must be nonnegative")))
    if "seed" in takes:
        checks.append(("--seed", lambda: np.random.default_rng(args.seed)))
    checks.append(("--tol", lambda: _require(
        args.tol is None or 0.0 <= args.tol < math.inf,
        "tolerance must be finite and nonnegative")))
    if "grid" in takes:
        checks.append(("--grid", lambda: cp._default_grid(
            p, args.grid, args.scheme)))
    if "steps" in takes:  # the orbit flags
        def orbit():
            return cp.classical_orbit(p, args.energy, args.centre)
        checks += [
            ("--x0", lambda: _require(all(map(math.isfinite, args.x0)),
                                      "x0 must be finite")),
            ("--steps", lambda: _require(
                args.steps is None or 1 <= args.steps <= cl.MAX_STEPS,
                f"need between 1 and {cl.MAX_STEPS} steps")),
            ("--dt", lambda: cp._orbit_clock(p, args.dt, args.steps)),
            ("--centre", lambda: args.centre is None
             or cl.TrajectoryParams(0.0, args.centre)),
            ("--energy", lambda: _require(
                2.0 * p.m * orbit().E < math.inf,
                "the momentum sqrt(2 m E) overflows")),
            ("--energy", lambda: cl.analytic_trajectory(p, orbit(), 0.0)),
            ("--centre", lambda: _check_reach(p, orbit(), args.x0)),
        ]
    for flag, check in checks:
        try:
            check()
        except ValueError as exc:
            parser.error(f"{flag}: {exc}")


def _check_reach(p: PhysicalParams, tp: cl.TrajectoryParams, x0):
    """Refuse an orbit on which the charges about x0 or T1^2 + T2^2 overflow
    anywhere: each point lies within reach = |xc - x0| + r of x0, so every
    term the evaluator forms (u_i^2, p_i^2, u_i p_j, qB u_i, qB u_i^2 / 2)
    and every sum is below (12 + 4 |qB|) max(|p|, |qB| reach, reach)^2."""
    pa, qb = math.sqrt(2.0 * p.m * tp.E), abs(p.qB)
    reach = math.dist(tp.xc, x0) + math.sqrt(2.0 * tp.E / p.m) / p.omega_c
    big = max(pa, qb * reach, reach)
    _require((12.0 + 4.0 * qb) * big * big < math.inf,
             f"the charges overflow on an orbit reaching {reach:.3e} from x0")


def _check_positions(p: PhysicalParams, nmax: int, x0):
    """Refuse an x0 whose products in the commutator suite overflow.  x0
    enters the suite only as x0_i times the identity in x1, x2, xc1 and
    xc2; their polynomials hold it as a constant, which every Poisson
    bracket drops.  Each [A, C] is A @ C - C @ A minus an x0-free bracket,
    and an entry of A @ C adds to the x0 = 0 terms either x0_1 x0_2 (in
    [xc1, xc2]), which A @ C and C @ A hold with the same bits so that it
    cancels exactly, or at most two terms x0_i y, with y an entry of H, T_j,
    p_j or xc_j - x0_j: |y| <= e = max(hbar w (nmax + 1/2), c sqrt(nmax),
    c sqrt(nmax) / |qB|), with c the ladder scale.  Four such terms in a
    part of a gap entry, and hypot's sqrt(2), stay below 6 max|x0_i| e.
    A non-finite x0 is left to the gauge's own check, and x0 = 0 adds no
    term."""
    if not all(map(math.isfinite, x0)) or not any(x0):
        return
    r = max(map(abs, x0))
    c = p.ladder_scale * math.sqrt(nmax)
    e = max(p.hbar * p.omega_c * (nmax + 0.5), c, c / abs(p.qB))
    _require(abs(x0[0] * x0[1]) < math.inf and 6.0 * r * e < math.inf,
             "the suite's products of x0 overflow")


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


# values formatted per chunk of a streamed CSV
_CSV_CHUNK = 8192


def _write_csv(path: str, header: list[str], rows):
    """Write ``header`` and ``rows`` as the bytes ``csv.writer`` writes with
    its default dialect, streamed in chunks of about ``_CSV_CHUNK`` values.

    ``rows`` is a 2-D float64 array or an iterable of rows of Python floats
    and strings; every float is written as its repr, by the one formatter
    :func:`landaulab._floattext.join_reprs`, and every string as it is.  A
    field ``csv.writer`` would quote raises ValueError, as does a row whose
    length differs from the header's, before the file is opened."""
    # imported here, so that only the calls that write a CSV compile it
    from ._floattext import join_reprs

    ncols = len(header)
    for name in header:
        _check_field(name, ncols)
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.float64 or rows.ndim != 2 \
                or rows.shape[1] != ncols:
            raise ValueError(f"expected a float64 array of {ncols} columns, "
                             f"got {rows.dtype} of shape {rows.shape}")
    else:
        rows = list(rows)
        for row in rows:
            if len(row) != ncols:
                raise ValueError(f"row of {len(row)} fields under a header "
                                 f"of {ncols}")
            for field in row:
                if type(field) is not float:
                    _check_field(field, ncols)
    line = ",".join(["%s"] * ncols) + "\r\n"
    step = max(1, _CSV_CHUNK // max(ncols, 1))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            # (an array's rows of no fields are written as the empty rows
            # of a row table)
            if isinstance(chunk, np.ndarray) and ncols:
                fh.write(join_reprs(chunk.ravel(), ncols).decode("ascii"))
                continue
            # the float fields of the chunk formatted at once, one a line
            fields = [field for row in chunk for field in row]
            floats = [field for field in fields if type(field) is float]
            texts = iter(join_reprs(np.array(floats, np.float64), 1)
                         .decode("ascii").split("\r\n"))
            fields = [next(texts) if type(field) is float else field
                      for field in fields]
            fh.write(line * len(chunk) % tuple(fields))


def _dump_grid_rows(psi: wv.WaveForm, extent: float, n: int = 41):
    """``psi`` sampled on an n x n square of shifted coordinates u, as rows
    ``x0 + u, re, im``."""
    u = np.linspace(-extent, extent, n)
    rows = np.empty((n, n, 4))
    rows[:, :, 0] = (psi.origin[0] + u)[:, None]
    rows[:, :, 1] = (psi.origin[1] + u)[None, :]
    for k, u1 in enumerate(u):
        vals = psi.jet(u1, u, 0).f
        rows[k, :, 2] = vals.real
        rows[k, :, 3] = vals.imag
    return rows.reshape(n * n, 4)


def _campaign(args, p, g, tol: dict):
    """Run the campaign ``args`` names; returns its report and the header
    and rows of its CSV output, both None when it writes none."""
    csv_header = rows = None
    if args.command == "verify-algebra":
        report = cp.run_verify_algebra(p, nmax=args.nmax, x0=args.x0, **tol)
    elif args.command == "gauge-scan":
        gauges = cp.default_gauges(args.seed, x0=args.x0)
        report = cp.run_gauge_scan(p, gauges, nmax=args.nmax,
                                   grid_k=args.grid, scheme=args.scheme,
                                   seed=args.seed, levels=args.scan_levels,
                                   **tol)
    elif args.command == "reproduce-tables":
        report, table_rows = cp.run_reproduce_tables(
            p, nmax=args.nmax, grid_k=args.grid, scheme=args.scheme,
            gauge=g, **tol)
        csv_header = ["basis", "operator", "indices", "closed_form_re",
                      "closed_form_im", "computed_re", "computed_im",
                      "abs_error"]
        rows = [(basis, op, "/".join(str(i) for i in idx),
                 complex(closed).real, complex(closed).imag,
                 complex(val).real, complex(val).imag, err)
                for basis, op, idx, closed, val, err in table_rows]
    elif args.command == "classical-sim":
        report, rows = cp.run_classical_sim(
            p, cp.classical_orbit(p, args.energy, args.centre), dt=args.dt,
            steps=args.steps, method=args.method, x0=args.x0, seed=args.seed,
            **tol)
        csv_header = ["t", "x1", "x2", "p1", "p2", "E", "T1", "T2", "M3"]
    elif args.command == "basis-change":
        report = cp.run_basis_change(p, gauge=g, grid_k=args.grid,
                                     scheme=args.scheme, seed=args.seed, **tol)
    else:  # heisenberg-demo, as argparse enforces the choices
        report = cp.run_heisenberg_demo(p, grid_k=args.grid,
                                        scheme=args.scheme, **tol)
    if getattr(args, "dump_grid", False):
        state = (1, 0) if args.command == "gauge-scan" else (2, 1)
        csv_header = ["x1", "x2", "re", "im"]
        rows = _dump_grid_rows(wv.fock_state(g, p, *state),
                               4.0 * p.magnetic_length)
    return report, csv_header, rows


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "scheme", None) == "gh":  # the library's name for it
        args.scheme = "gauss_hermite"
    p = _physical(args, parser)
    _check_numerics(args, parser, p)
    g = _gauge(args, parser)
    # --tol overrides the campaign's primary tolerance, its only one
    tol = {} if args.tol is None else {"tol": args.tol}
    try:
        report, csv_header, rows = _campaign(args, p, g, tol)
    except quad.SupportOverflowError as exc:
        parser.error(f"--grid: {exc}")
    except cp.ScanLevelsError as exc:
        parser.error(f"--scan-levels: {exc}")
    except fk.UnitsError as exc:
        parser.error(f"--mass/--charge/--bfield/--hbar: {exc}")
    except fk.TruncationError as exc:
        parser.error(f"--nmax: {exc}")
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
