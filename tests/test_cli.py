import csv
import json
import math

import pytest

from landaulab.cli import main
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
    assert data["settings"]["nmax"] == 16
    assert data["settings"]["margin"] == 3
    assert all(set(c) == {"id", "deviation", "tolerance", "pass"}
               for c in data["checks"])
    assert "timestamp" not in data


def test_report_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    main(["verify-algebra", "--quiet", "--no-timestamp",
          "--json-out", str(out)])
    rep = VerificationReport.from_json(out.read_text())
    assert rep.to_json() == out.read_text()
    assert rep.passed


def test_truncation_edge_flagged_as_failure(tmp_path):
    code = main(["verify-algebra", "--nmax", "2", "--margin", "0", "--quiet",
                 "--no-timestamp", "--json-out", str(tmp_path / "r.json")])
    assert code == 1
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["pass"] is False
    failed = [c for c in data["checks"] if not c["pass"]]
    assert failed


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


def test_bad_phi_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-algebra", "--phi", "u1^9", "--quiet", "--no-timestamp"])
    assert exc.value.code == 2
    assert "--phi: term of degree 9" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["verify-algebra", "--nmax", "0"], "--nmax: nmax must be at least 1"),
    (["gauge-scan", "--scheme", "simpson", "--grid", "41"],
     "--grid: Simpson rule needs an even interval count"),
    (["verify-algebra", "--margin", "20"],
     "--margin: margin 20 out of range for nmax 16"),
    (["verify-algebra", "--phi", "u1^^2"],
     "--phi: expected nonnegative integer exponent (at position 3)"),
    (["classical-sim", "--mass", "0"], "mass must be positive"),
    (["classical-sim", "--steps", "0"], "--steps: need at least one step"),
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
    (["reproduce-tables", "--nmax", "11"],
     "--nmax: reproduce-tables needs nmax >= 12"),
    (["gauge-scan", "--scan-levels", "2", "--nmax", "3"],
     "--nmax: --scan-levels 2 needs nmax >= 4"),
    (["gauge-scan", "--scan-levels", "1", "--nmax", "2"],
     "--nmax: --scan-levels 1 needs nmax >= 3"),
    (["gauge-scan", "--scan-levels", "-1"],
     "--scan-levels: levels must be nonnegative"),
    (["gauge-scan", "--scan-levels", "21", "--nmax", "42"],
     "--scan-levels: levels above 20 reach quantum numbers beyond 40"),
    (["classical-sim", "--seed", "-1"], "--seed: expected non-negative integer"),
], ids=["nmax", "simpson-grid", "margin", "phi-syntax", "mass", "steps",
        "dt-negative", "dt-nan", "energy", "bfield-nan", "hbar-inf",
        "alpha-nan", "x0-nan", "tables-nmax", "scan-nmax", "scan-nmax-cubic",
        "scan-levels", "scan-levels-high", "seed"])
def test_bad_input_exits_2(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--quiet", "--no-timestamp"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"landaulab: error: {message}")


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
