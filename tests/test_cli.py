import argparse
import csv
import json
import math
import os
import string
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import landaulab
from landaulab.cli import _write_csv, build_parser, main
from landaulab.report import VerificationReport


def test_verify_algebra_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify-algebra", "--no-timestamp",
                 "--json-out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "[PASS] verify-algebra" in text
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert data["params"] == {"m": 1.0, "q": 1.0, "B": 1.0, "hbar": 1.0,
                              "omega_c": 1.0, "s": 1}
    assert data["settings"] == {"nmax": 16, "grid": None, "scheme": None,
                                "seed": None}
    assert all(set(c) == {"id", "deviation", "tolerance", "pass"}
               for c in data["checks"])
    assert "timestamp" not in data


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_report_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    main(["verify-algebra", "--quiet", "--no-timestamp",
          "--json-out", str(out)])
    rep = VerificationReport.from_json(out.read_text())
    assert rep.to_json() == out.read_text()
    assert rep.passed

    # add reduces a collection of deviations to its largest
    rep = VerificationReport("demo", {}, [], {})
    # a single number passes through bit for bit, through JSON as well
    singles = [0.1 + 0.2, 5e-324, 1.7976931348623157e308, -0.0, math.inf]
    for k, x in enumerate(singles):
        assert _bits(rep.add(f"single:{k}", x, 1.0).deviation) == _bits(x)
    rep.add("list", [0.5, 3.0, 2.0], 1.0)
    rep.add("array", np.array([[1e-9, 4e-9], [2e-9, 3e-9]]), 1e-8)
    rep.add("nan-list", [1.0, math.nan, 2.0], 1e3)
    rep.add("nan-array", np.array([0.0, np.nan]), 1e3)
    rep.add("empty-list", [], 0.0)
    rep.add("empty-array", np.empty((0, 3)), 0.0)
    back = VerificationReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()
    for k, x in enumerate(singles):
        assert _bits(back.checks[k].deviation) == _bits(x)
    by_id = {c.id: c for c in back.checks}
    assert by_id["list"].deviation == 3.0 and not by_id["list"].passed
    assert by_id["array"].deviation == 4e-9 and by_id["array"].passed
    for cid in ("nan-list", "nan-array"):
        assert math.isnan(by_id[cid].deviation) and not by_id[cid].passed
    for cid in ("empty-list", "empty-array"):
        assert _bits(by_id[cid].deviation) == _bits(0.0)
        assert by_id[cid].passed
    assert not back.passed


@pytest.mark.parametrize("args", [
    ["verify-algebra", "--nmax", "1"],
    ["gauge-scan", "--scan-levels", "4", "--nmax", "9"]],
    ids=["algebra-nmax-1", "scan-levels-4-nmax-9"])
def test_smallest_truncation_passes(args):
    # each reads only entries the truncation did not touch
    assert main(args + ["--quiet", "--no-timestamp"]) == 0


def test_hbar_rescaling_keeps_pass_profile(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify-algebra", "--quiet", "--no-timestamp",
                 "--json-out", str(a)]) == 0
    assert main(["verify-algebra", "--hbar", "2", "--quiet", "--no-timestamp",
                 "--json-out", str(b)]) == 0
    pa = [c["pass"] for c in json.loads(a.read_text())["checks"]]
    pb = [c["pass"] for c in json.loads(b.read_text())["checks"]]
    assert pa == pb


@pytest.mark.parametrize("args", [
    ["verify-algebra", "--nmax", "8", "--x0", "0.3,-0.2"],
    ["gauge-scan", "--grid", "40", "--scan-levels", "1", "--nmax", "8",
     "--dump-grid"],
    ["reproduce-tables", "--grid", "56", "--nmax", "14", "--alpha", "0.37",
     "--phi", "0.05*u1^2*u2 - 0.1*u1"],
    ["basis-change", "--grid", "64", "--seed", "11"],
    ["classical-sim", "--steps", "500", "--charge", "-1", "--hbar", "0.6"],
    ["heisenberg-demo", "--grid", "48"],
], ids=lambda args: args[0])
def test_reports_byte_identical(tmp_path, args):
    args = args + ["--quiet", "--no-timestamp"]
    outputs = []
    for run in ("a", "b"):
        files = (tmp_path / f"{run}.json", tmp_path / f"{run}.csv")
        main(args + ["--json-out", str(files[0]), "--csv-out", str(files[1])])
        outputs.append([f.read_bytes() if f.exists() else None for f in files])
    assert outputs[0][0] is not None
    assert outputs[0] == outputs[1]


def _fixed_tolerance(check_id: str):
    """The tolerance a check keeps whatever ``--tol`` says; None for a check
    on its campaign's primary tolerance."""
    if check_id.startswith(("hermitian:", "spectrum:")) \
            or check_id == "canonical-shift:nonzero":
        return 0.0
    if check_id.endswith(("closed-vs-matrix", "p-same-level-zero")):
        return 1e-12
    return {"reconstruction": 1e-7, "relation-residual": 1e-10,
            "ode-residual": 1e-10, "closure:one-period": 1e-6}.get(check_id)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_campaigns_run_without_numpy_warnings(tmp_path):
    # a numpy RuntimeWarning on a campaign's path marks arithmetic gone
    # wrong, as the zero weights of a 371-node Gauss-Hermite rule did:
    # here it is an error, and every campaign still passes
    for args in (["verify-algebra", "--nmax", "8"],
                 ["gauge-scan", "--grid", "40", "--scan-levels", "2",
                  "--nmax", "8"],
                 ["reproduce-tables", "--grid", "56", "--nmax", "12"],
                 ["basis-change", "--grid", "56"],
                 ["classical-sim", "--steps", "500"],
                 ["heisenberg-demo", "--grid", "48"]):
        code = main(args + ["--quiet", "--no-timestamp", "--json-out",
                            str(tmp_path / "r.json"), "--csv-out",
                            str(tmp_path / "r.csv")])
        assert code == 0, args[0]


@pytest.mark.parametrize("args", [
    ["verify-algebra", "--nmax", "8"],
    ["gauge-scan", "--grid", "40", "--scan-levels", "1", "--nmax", "8"],
    ["reproduce-tables", "--grid", "56", "--nmax", "12"],
    ["basis-change", "--grid", "56"],
    ["classical-sim", "--steps", "200"],
    ["heisenberg-demo", "--grid", "48"],
], ids=lambda args: args[0])
def test_tol_overrides_the_primary_tolerance_only(tmp_path, args):
    out = tmp_path / "r.json"
    main(args + ["--tol", "1e-3", "--quiet", "--no-timestamp",
                 "--json-out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    primary = [c for c in checks if _fixed_tolerance(c["id"]) is None]
    assert primary
    for c in checks:
        fixed = _fixed_tolerance(c["id"])
        assert c["tolerance"] == (1e-3 if fixed is None else fixed), c["id"]


def test_zero_tol_runs_the_campaign(tmp_path):
    # unlike a negative or NaN tolerance, zero is valid: every primary check
    # is held to it and a nonzero deviation fails
    out = tmp_path / "r.json"
    code = main(["heisenberg-demo", "--grid", "48", "--tol", "0", "--quiet",
                 "--no-timestamp", "--json-out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    assert checks and all(c["tolerance"] == 0.0 for c in checks)
    assert code == (0 if all(c["deviation"] == 0.0 for c in checks) else 1)


def test_classical_sim_csv_and_summary(tmp_path):
    out = tmp_path / "traj.csv"
    rep = tmp_path / "rep.json"
    code = main(["classical-sim", "--steps", "2000", "--quiet",
                 "--no-timestamp", "--csv-out", str(out),
                 "--json-out", str(rep)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "p1", "p2", "E", "T1", "T2", "M3"]
    assert len(rows) == 2002
    data = json.loads(rep.read_text())
    drift = {c["id"]: c["deviation"] for c in data["checks"]}
    assert drift["drift:E"] < 1e-8
    assert drift["drift:T1"] < 1e-8


# floats whose repr changes form: zeros, subnormals, the switch to
# exponent notation below 1e-4 and at 1e16, the largest finite values,
# infinities and nan
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e-05,
                9.999999999999999e-05, 0.0001, math.nextafter(1e16, 0.0), 1e16,
                math.nextafter(1e16, math.inf), 1.7976931348623157e308,
                -1.7976931348623157e308, math.inf, -math.inf, math.nan]
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))
_IDENTS = st.text(string.ascii_letters + string.digits + "_*/-.+ ",
                  min_size=1, max_size=10)


@st.composite
def _tables(draw):
    """A header and rows of float columns mixed with identifier columns."""
    kinds = draw(st.lists(st.sampled_from([_FLOATS, _IDENTS]), min_size=1,
                          max_size=6))
    header = draw(st.lists(_IDENTS, min_size=len(kinds),
                           max_size=len(kinds)))
    nrows = draw(st.integers(0, 12))
    return header, [tuple(draw(kind) for kind in kinds)
                    for _ in range(nrows)]


_WRITER_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@_WRITER_SETTINGS
@given(_tables())
def test_csv_writer_matches_csv_module(tmp_path, table):
    header, rows = table
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _write_csv(str(out), header, rows)
    assert out.read_bytes() == ref.read_bytes()
    if all(type(f) is float for row in rows for f in row):
        table = np.array(rows, dtype=float).reshape(len(rows), len(header))
        _write_csv(str(out), header, table)
        assert out.read_bytes() == ref.read_bytes()


@_WRITER_SETTINGS
@given(_tables(), st.sampled_from(',"\r\n'), st.data())
def test_csv_writer_refuses_fields_csv_would_quote(tmp_path, table, char,
                                                   data):
    header, rows = table
    cells = [(None, j) for j in range(len(header))]
    cells += [(i, j) for i in range(len(rows)) for j in range(len(header))]
    i, j = data.draw(st.sampled_from(cells))
    text = data.draw(_IDENTS)
    k = data.draw(st.integers(0, len(text)))
    bad = text[:k] + char + text[k:]
    if i is None:
        header[j] = bad
    else:
        rows[i] = rows[i][:j] + (bad,) + rows[i][j + 1:]
    with pytest.raises(ValueError, match="would need quoting"):
        _write_csv(str(tmp_path / "out.csv"), header, rows)


def test_csv_writer_refuses_other_fields(tmp_path):
    out = str(tmp_path / "out.csv")
    # csv.writer quotes the lone empty field of a one-column row
    with pytest.raises(ValueError, match="would need quoting"):
        _write_csv(out, ["a"], [("",)])
    # only Python floats and strings are accepted: None, for one, would
    # read "None" here and "" through csv.writer
    for field in (np.float64(2.0), None, 2, True):
        with pytest.raises(TypeError, match="neither a float nor a str"):
            _write_csv(out, ["a", "b"], [(1.0, field)])
    with pytest.raises(ValueError, match="row of 1 fields"):
        _write_csv(out, ["a", "b"], [(1.0, 2.0), (3.0,)])
    with pytest.raises(ValueError, match="float64 array of 2 columns"):
        _write_csv(out, ["a", "b"], np.zeros((3, 3)))


def test_classical_zero_energy_all_drifts_zero(tmp_path):
    rep = tmp_path / "rep.json"
    code = main(["classical-sim", "--energy", "0", "--centre", "0.3,0.4",
                 "--steps", "500", "--quiet", "--no-timestamp",
                 "--json-out", str(rep)])
    assert code == 0
    data = json.loads(rep.read_text())
    for c in data["checks"]:
        if c["id"].startswith("drift:"):
            assert c["deviation"] == 0.0


def test_zero_residual_reads_zero_when_force_scale_underflows(tmp_path):
    # m = 1e300 and hbar = 1e-300 make omega_c l_B = 1e-450 underflow, so
    # the ODE-residual force scale is 0; the static zero-energy orbit must
    # still read 0.0, not 0/0
    rep = tmp_path / "rep.json"
    main(["classical-sim", "--mass", "1e300", "--hbar", "1e-300", "--energy",
          "0", "--steps", "20", "--quiet", "--no-timestamp", "--json-out",
          str(rep)])
    checks = {c["id"]: c for c in json.loads(rep.read_text())["checks"]}
    assert checks["ode-residual"]["deviation"] == 0.0


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_force_floor_without_an_overflowing_square(capsys, tmp_path):
    # omega_c = 1e300 is finite, and so is the force floor
    # m omega_c^2 l_B = 1e150, though omega_c ** 2 overflows: the run ends
    # with a report, not a traceback
    rep = tmp_path / "rep.json"
    code = main(["classical-sim", "--mass", "1e-300", "--hbar", "1e-300",
                 "--steps", "200", "--quiet", "--no-timestamp",
                 "--json-out", str(rep)])
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    checks = {c["id"]: c for c in json.loads(rep.read_text())["checks"]}
    assert checks["drift:E"]["pass"] and checks["closure:one-period"]["pass"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_centre_at_the_edge_of_the_reach_bound(capsys, tmp_path):
    # at unit parameters _check_reach admits reaches below 3.35e153: just
    # inside, every term of the charges and their relation stays finite and
    # the run ends with a report; just outside, the centre is refused
    rep = tmp_path / "rep.json"
    code = main(["classical-sim", "--centre", "3e153,0", "--steps", "200",
                 "--quiet", "--no-timestamp", "--json-out", str(rep)])
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(rep.read_text())["checks"]
    with pytest.raises(SystemExit) as exc:
        main(["classical-sim", "--centre", "3.4e153,0", "--quiet",
              "--no-timestamp"])
    assert exc.value.code == 2
    assert "--centre: the charges overflow" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("edge, beyond", [
    ("1.34e154,1.34e154", "1.474e154,1.34e154"),
    ("1.8e306,0", "0,-1.98e306"),
], ids=["product", "linear"])
def test_x0_at_the_edge_of_the_position_bound(monkeypatch, capsys, tmp_path,
                                              edge, beyond):
    # at unit parameters and nmax 16 _check_positions admits |x0_1 x0_2|
    # below the largest double and |x0_i| below 1.82e306: at the edge the
    # suite ends with a report, 10 % beyond it x0 is refused before any
    # operator is built
    rep = tmp_path / "rep.json"
    code = main(["verify-algebra", f"--x0={edge}", "--quiet",
                 "--no-timestamp", "--json-out", str(rep)])
    assert code == 0 and json.loads(rep.read_text())["pass"]
    built = []
    monkeypatch.setattr(landaulab.fockspace, "build_observable",
                        lambda *args: built.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["verify-algebra", f"--x0={beyond}", "--quiet",
              "--no-timestamp"])
    assert exc.value.code == 2 and not built
    assert "--x0: the suite's products of x0 overflow" \
        in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("edge, beyond, message", [
    (["--charge=8.2e-155"], ["--charge=6.8e-155"],
     "the bracket {xc1, xc2} is not finite at these units"),
    (["--hbar=5.5e151"], ["--hbar=6.65e151"],
     "the suite's operator products overflow at these units"),
    (["--charge=2.26e203"], ["--charge=2.74e203"],
     "the suite's operator products overflow at these units"),
    (["--mass=1.5e-304"], ["--mass=1.2e-304"],
     "the suite's operator products overflow at these units"),
], ids=["bracket", "hbar", "charge", "mass"])
def test_units_at_the_edge_of_the_suite_bound(monkeypatch, capsys, tmp_path,
                                              edge, beyond, message):
    # at nmax 16 _check_units admits units up to where a bracket
    # coefficient or the bound on an operator-product entry overflows: at
    # the edge the suite ends with a report of finite deviations (some fail
    # on rounding far above 1e-12, which is a matter of units), 10 % beyond
    # it the units are refused before any operator is built
    rep = tmp_path / "rep.json"
    code = main(["verify-algebra", *edge, "--quiet", "--no-timestamp",
                 "--json-out", str(rep)])
    checks = json.loads(rep.read_text())["checks"]
    assert code in (0, 1) and all(math.isfinite(c["deviation"])
                                  for c in checks)
    built = []
    monkeypatch.setattr(landaulab.fockspace, "build_observable",
                        lambda *args: built.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["verify-algebra", *beyond, "--quiet", "--no-timestamp"])
    assert exc.value.code == 2 and not built
    assert f"--mass/--charge/--bfield/--hbar: {message}" \
        in capsys.readouterr().err


_ORIGIN_RUNS = [
    ["gauge-scan", "--grid", "30", "--scan-levels", "1", "--nmax", "6",
     "--dump-grid"],
    ["gauge-scan", "--scheme", "simpson", "--grid", "64", "--scan-levels",
     "1", "--nmax", "6", "--dump-grid"],
    ["reproduce-tables", "--grid", "56", "--nmax", "12"],
    ["basis-change", "--grid", "56", "--dump-grid"],
]


def _origin_free_outputs(tmp_path, argv):
    """The exit code, the checks with their deviations' bits, and the CSV
    without its plane-coordinate columns."""
    rep, out = tmp_path / "rep.json", tmp_path / "out.csv"
    code = main(argv + ["--quiet", "--no-timestamp", "--json-out", str(rep),
                        "--csv-out", str(out)])
    checks = [(c["id"], _bits(c["deviation"]), c["pass"])
              for c in json.loads(rep.read_text())["checks"]]
    header, *rows = csv.reader(out.open(newline=""))
    keep = [i for i, name in enumerate(header) if name not in ("x1", "x2")]
    return code, checks, [[row[i] for i in keep] for row in rows]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", _ORIGIN_RUNS,
                         ids=["gauge-scan", "simpson", "tables", "basis"])
def test_no_output_depends_on_the_plane_origin(tmp_path, argv):
    # the quadrature runs on the shifted coordinates u = x - x0, where every
    # state, gauge and operator coefficient is a polynomial: each deviation
    # and each sampled value at any finite x0 is the x0 = 0 run's, bit for
    # bit, out to origins whose x0 + u rounds to x0
    want = _origin_free_outputs(tmp_path, argv)
    assert want[0] == 0 and want[2]
    for x0 in ("0.3,-0.2", "1e8,-1e8", "1e20,3.7", "-1e300,1e300"):
        assert _origin_free_outputs(tmp_path, argv + [f"--x0={x0}"]) == want


def test_reproduce_tables_csv(tmp_path):
    out = tmp_path / "tables.csv"
    code = main(["reproduce-tables", "--nmax", "14", "--grid", "64", "--quiet",
                 "--no-timestamp", "--csv-out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["basis", "operator", "indices", "closed_form_re",
                       "closed_form_im", "computed_re", "computed_im",
                       "abs_error"]
    assert len(rows) > 100
    assert max(float(r[-1]) for r in rows[1:]) < 1e-8


def test_gauge_scan_small_grid(tmp_path):
    rep = tmp_path / "rep.json"
    grid_csv = tmp_path / "grid.csv"
    code = main(["gauge-scan", "--grid", "56", "--scan-levels", "2",
                 "--quiet", "--no-timestamp",
                 "--json-out", str(rep), "--dump-grid",
                 "--csv-out", str(grid_csv)])
    assert code == 0
    data = json.loads(rep.read_text())
    assert len(data["gauges"]) == 7
    ids = {c["id"] for c in data["checks"]}
    assert "invariance:H" in ids and "decomposition:pi1" in ids
    with open(grid_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "re", "im"]
    assert len(rows) == 41 * 41 + 1


def test_heisenberg_demo(tmp_path):
    code = main(["heisenberg-demo", "--grid", "48", "--quiet",
                 "--no-timestamp", "--json-out", str(tmp_path / "r.json")])
    assert code == 0


@pytest.mark.parametrize("args, certified_k", [
    # a cubic gauge and states up to n+ + n- = 3: degree 10, six nodes
    (["gauge-scan", "--grid", "40", "--scan-levels", "1", "--nmax", "8"], 6),
    (["reproduce-tables", "--grid", "56", "--nmax", "12"], 20),
    (["heisenberg-demo", "--grid", "48"], 4),
    # Simpson's rule is never certified
    (["heisenberg-demo", "--scheme", "simpson", "--grid", "48"], None),
    (["basis-change", "--grid", "64"], "absent"),
], ids=["scan", "tables", "demo", "demo-simpson", "basis"])
def test_reports_record_the_certified_rule(tmp_path, args, certified_k):
    out = tmp_path / "r.json"
    code = main(args + ["--quiet", "--no-timestamp", "--json-out", str(out)])
    assert code == 0
    settings = json.loads(out.read_text())["settings"]
    assert settings.get("certified_k", "absent") == certified_k


def test_simpson_scheme(tmp_path):
    code = main(["basis-change", "--scheme", "simpson", "--grid", "96",
                 "--quiet", "--no-timestamp",
                 "--json-out", str(tmp_path / "r.json")])
    assert code == 0
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["settings"]["scheme"] == "simpson"


def test_gauge_flags_accepted(tmp_path):
    code = main(["basis-change", "--alpha", "0.8", "--phi", "0.1*u1*u2",
                 "--x0", "0.3,-0.2", "--grid", "64", "--quiet",
                 "--no-timestamp", "--json-out", str(tmp_path / "r.json")])
    assert code == 0


@pytest.mark.parametrize("command, flag, dest", [
    ("verify-algebra", "--x0", "x0"), ("classical-sim", "--centre", "centre"),
])
def test_negative_pairs_parse_in_the_equals_form(capsys, command, flag, dest):
    # argparse reads a separate leading '-' as a flag; joined by '=' the
    # pair parses, and the help says so
    args = build_parser().parse_args([command, f"{flag}=-0.3,0.2"])
    assert getattr(args, dest) == (-0.3, 0.2)
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, flag, "-0.3,0.2"])
    assert "expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    assert f"{flag}=-0.3,0.2" in " ".join(capsys.readouterr().out.split())


def test_bad_phi_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis-change", "--phi", "u1^9", "--quiet", "--no-timestamp"])
    assert exc.value.code == 2
    assert "--phi: term of degree 9" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["verify-algebra", "--nmax", "0"], "--nmax: nmax must be at least 1"),
    (["verify-algebra", "--nmax", "41"],
     "--nmax: nmax 41 exceeds the validated maximum 40"),
    (["gauge-scan", "--nmax", "41"],
     "--nmax: nmax 41 exceeds the validated maximum 40"),
    (["reproduce-tables", "--nmax", "41"],
     "--nmax: nmax 41 exceeds the validated maximum 40"),
    (["gauge-scan", "--scheme", "simpson", "--grid", "41"],
     "--grid: Simpson rule needs an even interval count"),
    (["basis-change", "--phi", "u1^^2"],
     "--phi: expected nonnegative integer exponent (at position 3)"),
    (["classical-sim", "--mass", "0"], "mass must be positive"),
    (["classical-sim", "--steps", "0"],
     "--steps: need between 1 and 1048576 steps"),
    (["classical-sim", "--steps", "1048577"],
     "--steps: need between 1 and 1048576 steps"),
    (["classical-sim", "--dt", "-0.1"],
     "--dt: dt must be positive and finite"),
    (["classical-sim", "--dt", "nan"], "--dt: dt must be positive and finite"),
    (["classical-sim", "--energy", "-1"],
     "--energy: energy must be finite and nonnegative"),
    (["heisenberg-demo", "--bfield", "nan"],
     "magnetic field must be nonzero and finite"),
    (["heisenberg-demo", "--hbar", "inf"], "hbar must be positive and finite"),
    (["basis-change", "--alpha", "nan"], "alpha and x0 must be finite"),
    (["basis-change", "--x0", "nan,0"], "alpha and x0 must be finite"),
    (["verify-algebra", "--x0", "nan,0"], "alpha and x0 must be finite"),
    (["classical-sim", "--x0", "inf,0"], "--x0: x0 must be finite"),
    (["classical-sim", "--x0", "nan,0"], "--x0: x0 must be finite"),
    # the p entries at the table's label pairs reach n+ = 12
    (["reproduce-tables", "--nmax", "11"],
     "--nmax: the operator entries the tables read are exact only from "
     "nmax 12"),
    # the scan refuses, before any quadrature, a truncation that touches a
    # canonical-operator entry it reads, naming the nmax it needs; the cubic
    # gauge's degree asks for 3 first
    (["gauge-scan", "--scan-levels", "2", "--nmax", "3"],
     "--nmax: the canonical-operator entries the scan reads are exact only "
     "from nmax 4"),
    (["gauge-scan", "--scan-levels", "1", "--nmax", "2"],
     "--nmax: polynomial degree 3 exceeds truncation nmax=2"),
    (["gauge-scan", "--scan-levels", "4", "--nmax", "8"],
     "--nmax: the canonical-operator entries the scan reads are exact only "
     "from nmax 9"),
    (["gauge-scan", "--scan-levels", "5", "--nmax", "10"],
     "--nmax: the canonical-operator entries the scan reads are exact only "
     "from nmax 11"),
    (["gauge-scan", "--scan-levels", "-1"],
     "--scan-levels: levels must be nonnegative"),
    # level 20 reads entries exact only from nmax 41, and no --nmax admits
    # that; any larger level is refused the same way, before its states
    # are listed
    *[(["gauge-scan", "--scan-levels", lv, "--nmax", "40"],
       "--scan-levels: levels above 19 read canonical-operator entries that "
       "no nmax up to 40 keeps exact") for lv in ("20", "21", str(10 ** 9))],
    (["classical-sim", "--seed", "-1"], "--seed: expected non-negative integer"),
    # grids too small for the integrands fail their support check mid-run;
    # the scan's and the demo's batches are certified on 14-15 and 4 nodes,
    # so they fail it only where --grid is no larger
    (["gauge-scan", "--grid", "10", "--scan-levels", "4"],
     "--grid: integrand boundary magnitude"),
    (["basis-change", "--grid", "10"], "--grid: integrand boundary magnitude"),
    (["heisenberg-demo", "--grid", "4"],
     "--grid: integrand boundary magnitude"),
    (["reproduce-tables", "--grid", "10", "--nmax", "12"],
     "--grid: integrand boundary magnitude"),
    # the rk4 comparison orbit overflows mid-run
    (["classical-sim", "--dt", "1e300", "--steps", "3"],
     "--dt: phase-space components must be finite"),
    # the default dt and the closure check's, a thousandth of the period
    (["classical-sim", "--mass", "1e10", "--charge", "1e-160", "--bfield",
      "1e-153", "--hbar", "1e-20"], "--dt: the cyclotron period overflows"),
    (["classical-sim", "--mass", "1e10", "--charge", "1e-160", "--bfield",
      "1e-153", "--hbar", "1e-20", "--dt", "0.1"],
     "--dt: the cyclotron period overflows"),
    (["heisenberg-demo", "--tol", "nan"],
     "--tol: tolerance must be finite and nonnegative"),
    (["verify-algebra", "--tol", "-1"],
     "--tol: tolerance must be finite and nonnegative"),
    (["classical-sim", "--tol", "inf"],
     "--tol: tolerance must be finite and nonnegative"),
    # derived scales that underflow or overflow
    (["verify-algebra", "--charge", "1e-300", "--bfield", "1e-300"],
     "qB must be nonzero and finite"),
    (["classical-sim", "--charge", "1e300", "--bfield", "1e10"],
     "qB must be nonzero and finite"),
    (["classical-sim", "--mass", "1e-320"],
     "cyclotron frequency must be positive and finite"),
    (["classical-sim", "--energy", "1e308"],
     "--energy: the momentum sqrt(2 m E) overflows"),
    # orbits the campaign would overflow on: the default energy hbar w / 2,
    # the radius, the charges at the point farthest from x0, the centre
    (["classical-sim", "--hbar", "1e300", "--bfield", "1e10"],
     "--energy: energy must be finite and nonnegative"),
    (["classical-sim", "--energy", "1e300", "--mass", "1e-10"],
     "--energy: phase-space components must be finite"),
    (["classical-sim", "--centre", "1e308,0"],
     "--centre: the charges overflow on an orbit reaching 1.000e+308"),
    (["classical-sim", "--x0", "1e308,0"],
     "--centre: the charges overflow on an orbit reaching 1.000e+308"),
    (["classical-sim", "--centre", "inf,0"],
     "--centre: guiding centre must be finite"),
    (["classical-sim", "--centre", "nan,0"],
     "--centre: guiding centre must be finite"),
    # above 370 nodes numpy's Gauss-Hermite weights underflow to zero or
    # overflow; a rule that large is refused before it is built
    *[([campaign, "--grid", grid],
       f"--grid: {grid} exceeds the largest rule size 370")
      for campaign in ("gauge-scan", "reproduce-tables", "basis-change",
                       "heisenberg-demo") for grid in ("371", str(10 ** 21))],
    (["gauge-scan", "--scheme", "simpson", "--grid", "372"],
     "--grid: 372 exceeds the largest rule size 370"),
], ids=["nmax", "algebra-nmax-high", "scan-nmax-high", "tables-nmax-high",
        "simpson-grid", "phi-syntax", "mass", "steps", "steps-high",
        "dt-negative", "dt-nan", "energy", "bfield-nan", "hbar-inf",
        "alpha-nan", "x0-nan", "algebra-x0-nan", "sim-x0-inf", "sim-x0-nan",
        "tables-nmax", "scan-nmax", "scan-nmax-cubic", "scan-nmax-levels-4",
        "scan-nmax-levels-5",
        "scan-levels", "scan-levels-20", "scan-levels-high",
        "scan-levels-1e9", "seed", "scan-grid", "basis-grid",
        "demo-grid", "tables-grid", "dt-orbit-overflow", "period-overflow",
        "period-overflow-given-dt", "tol-nan",
        "tol-negative", "tol-inf", "qb-underflow", "qb-overflow",
        "omega-overflow", "energy-momentum-overflow", "default-energy-overflow",
        "radius-overflow", "centre-far", "x0-far", "centre-inf", "centre-nan",
        *[f"{c}-grid-{g}" for c in ("scan", "tables", "basis", "demo")
          for g in ("371", "1e21")], "simpson-grid-372"])
def test_bad_input_exits_2(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--quiet", "--no-timestamp"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"landaulab: error: {message}")


# the flags each subcommand takes: those its campaign reads
_FLAGS = {
    "verify-algebra": "--x0 --nmax",
    "gauge-scan": "--alpha --phi --x0 --nmax --grid --scheme --seed "
                  "--scan-levels --dump-grid",
    "reproduce-tables": "--alpha --phi --x0 --nmax --grid --scheme",
    "classical-sim": "--x0 --seed --energy --centre --dt --steps --method",
    "basis-change": "--alpha --phi --x0 --grid --scheme --seed --dump-grid",
    "heisenberg-demo": "--grid --scheme",
}
_EVERY = ("--mass --charge --bfield --hbar --tol --json-out --csv-out "
          "--no-timestamp --quiet")

# a valid value for each flag some subcommand does not take; --margin, a
# removed flag, is taken by none
_VALUES = {"--alpha": "0.3", "--phi": "u1", "--x0": "0.1,0.2", "--nmax": "8",
           "--margin": "1", "--grid": "40", "--scheme": "simpson",
           "--seed": "3"}
_NOT_TAKEN = [(name, flag) for name, own in _FLAGS.items()
              for flag in _VALUES if flag not in own.split()]


def test_each_subcommand_takes_the_flags_its_campaign_reads():
    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    taken = {name: {flag for a in sp._actions for flag in a.option_strings
                    if flag not in ("-h", "--help")}
             for name, sp in sub.choices.items()}
    assert taken == {name: set(f"{_EVERY} {own}".split())
                     for name, own in _FLAGS.items()}
    assert sum(map(len, taken.values())) == 87
    assert len(_NOT_TAKEN) == 23


@pytest.mark.parametrize("command, flag", _NOT_TAKEN,
                         ids=[f"{c}{f}" for c, f in _NOT_TAKEN])
def test_flag_not_taken_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, _VALUES[flag], "--quiet", "--no-timestamp"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "unrecognized arguments: " + flag in err.splitlines()[-1]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_nan_deviation_fails(tmp_path):
    # a finite field so large that every matrix element overflows to nan:
    # the checks must fail with a nan deviation, not pass at zero
    out = tmp_path / "r.json"
    code = main(["heisenberg-demo", "--bfield", "1e300", "--quiet",
                 "--no-timestamp", "--json-out", str(out)])
    assert code == 1
    checks = json.loads(out.read_text())["checks"]
    assert checks and all(math.isnan(c["deviation"]) and not c["pass"]
                          for c in checks)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_cancelling_infinities_fail_with_nan(tmp_path):
    # at hbar = 1e-300 some overlap rows hold both +inf and -inf: their
    # sums read nan, so the checks fail rather than raise
    out = tmp_path / "r.json"
    code = main(["basis-change", "--hbar", "1e-300", "--quiet",
                 "--no-timestamp", "--json-out", str(out)])
    assert code == 1
    checks = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
    assert math.isnan(checks["closed-vs-quadrature"]["deviation"])
    assert not checks["closed-vs-quadrature"]["pass"]


def test_campaigns_carry_no_state_between_calls(tmp_path):
    # the scan's once-per-call tables and the reducer's per-thread buffers
    # leave nothing behind: gauge-scan and reproduce-tables give the same
    # bytes run twice in one process, in both orders
    runs = {"gauge-scan": ["--grid", "40", "--scan-levels", "1", "--nmax",
                           "8"],
            "reproduce-tables": ["--grid", "56", "--nmax", "12"]}
    outputs = {name: [] for name in runs}
    for i, name in enumerate(["gauge-scan", "reproduce-tables",
                              "reproduce-tables", "gauge-scan"]):
        files = (tmp_path / f"{i}.json", tmp_path / f"{i}.csv")
        main([name, *runs[name], "--quiet", "--no-timestamp",
              "--json-out", str(files[0]), "--csv-out", str(files[1])])
        outputs[name].append([f.read_bytes() if f.exists() else None
                              for f in files])
    for first, second in outputs.values():
        assert first[0] is not None and first == second


def _openblas_dynamic_arch() -> bool:
    """Whether numpy's OpenBLAS picks its kernel at run time, so that
    ``OPENBLAS_CORETYPE`` selects one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


# the acceptance verify-algebra and small runs of the other two Fock-route
# campaigns
_KERNEL_RUNS = [
    ["verify-algebra"],
    ["gauge-scan", "--grid", "40", "--scan-levels", "1", "--nmax", "8"],
    ["reproduce-tables", "--grid", "56", "--nmax", "12"],
]
_KERNEL_SCRIPT = """
import json, sys
from landaulab.cli import main
for k, argv in enumerate(json.loads(sys.argv[2])):
    main(argv + ["--quiet", "--no-timestamp",
                 "--json-out", f"{sys.argv[1]}/{k}.json"])
"""


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="numpy's OpenBLAS has no run-time kernel choice")
def test_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    # the Fock route makes no BLAS call, so the reports keep their bytes
    # under every OpenBLAS kernel; each setting runs in its own process
    src = str(Path(landaulab.__file__).resolve().parents[1])
    procs = {}
    for coretype in (None, "Sandybridge", "Haswell"):
        env = {key: val for key, val in os.environ.items()
               if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / str(coretype)
        out.mkdir()
        procs[coretype] = (out, subprocess.Popen(
            [sys.executable, "-c", _KERNEL_SCRIPT, str(out),
             json.dumps(_KERNEL_RUNS)], env=env))
    try:
        for _, proc in procs.values():
            assert proc.wait(timeout=120) == 0
    finally:
        for _, proc in procs.values():
            proc.kill()
    default = procs[None][0]
    for k, argv in enumerate(_KERNEL_RUNS):
        want = (default / f"{k}.json").read_bytes()
        for coretype, (out, _) in procs.items():
            assert (out / f"{k}.json").read_bytes() == want, (argv, coretype)


_IMPORT_SCRIPT = """
import sys
before = set(sys.modules)
import landaulab.cli
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def test_cli_import_loads_only_numpy_and_the_standard_library():
    # the time to import landaulab.cli is paid by every campaign call: it
    # loads numpy and standard-library modules only, in a fresh interpreter
    src = str(Path(landaulab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"landaulab", "numpy"} <= loaded
    assert loaded - {"landaulab", "numpy"} <= set(sys.stdlib_module_names)


@pytest.mark.parametrize("args, message", [
    (["--dt", "1e308", "--steps", "50"], "--dt: the time 50 * dt overflows"),
    (["--dt", "1e305"], "--dt: the time 10000 * dt overflows"),
    (["--dt", "1e300", "--steps", "3"],
     "--dt: phase-space components must be finite"),
])
def test_overflowing_orbit_exits_2_without_a_warning(args, message):
    # a time column (its last time steps * dt) or an orbit that overflows
    # is refused with its one-line message alone: RuntimeWarning is an
    # error in this interpreter
    src = str(Path(landaulab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "landaulab.cli",
         "classical-sim", *args, "--quiet", "--no-timestamp"], env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"landaulab: error: {message}"
