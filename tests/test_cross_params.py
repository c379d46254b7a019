"""The campaigns must hold for arbitrary physical parameters, in particular
under orientation reversal (s = -1) where every angular phase flips, and
under rescaled hbar."""

import pytest

from landaulab import PhysicalParams
from landaulab import campaigns as cp
from landaulab.classical import NoetherCharges

PARAM_SETS = [
    PhysicalParams(1.3, -0.8, 1.7, hbar=0.6),   # s = -1
    PhysicalParams(2.0, 1.5, -0.9, hbar=2.0),   # s = -1, heavy, hbar > 1
    PhysicalParams(0.7, -1.1, -1.3),            # s = +1 via double flip
]


@pytest.mark.parametrize("p", PARAM_SETS, ids=lambda p: f"s{p.sign}_w{p.omega_c:.2f}")
def test_algebra_suite_any_parameters(p):
    rep = cp.run_verify_algebra(p, nmax=12, margin=3)
    assert rep.passed, [c.id for c in rep.checks if not c.passed]


@pytest.mark.parametrize("p", PARAM_SETS[:2], ids=("a", "b"))
def test_tables_any_parameters(p):
    rep, _ = cp.run_reproduce_tables(p, nmax=12, grid_k=64, idx_top=4)
    assert rep.passed, [c.id for c in rep.checks if not c.passed]
    assert max(c.deviation for c in rep.checks) < 1e-10


def test_basis_change_orientation_reversed():
    rep = cp.run_basis_change(PhysicalParams(1.3, -0.8, 1.7, hbar=0.6),
                              grid_k=64)
    assert rep.passed, [c.id for c in rep.checks if not c.passed]


def test_gauge_scan_orientation_reversed():
    p = PhysicalParams(2.0, 1.5, -0.9, hbar=2.0)
    rep = cp.run_gauge_scan(p, gauges=cp.default_gauges(3), nmax=12,
                            grid_k=64, n_top=2, l_top=2)
    assert rep.passed, [c.id for c in rep.checks if not c.passed]


def test_flat_connection_demo_any_parameters():
    rep = cp.run_heisenberg_demo(PhysicalParams(0.7, -1.1, -1.3), grid_k=64)
    assert rep.passed


@pytest.mark.parametrize("p", PARAM_SETS, ids=lambda p: f"s{p.sign}_w{p.omega_c:.2f}")
def test_classical_suite_any_parameters(p):
    rep, _ = cp.run_classical_sim(p, steps=3000)
    assert rep.passed, [c.id for c in rep.checks if not c.passed]


@pytest.mark.parametrize("p", PARAM_SETS, ids=lambda p: f"s{p.sign}_w{p.omega_c:.2f}")
def test_classical_report_matches_pointwise_reference(p):
    # the campaign reduces whole columns; the reference below is the
    # pointwise formula, one state at a time, and must give the same bits
    rep, rows = cp.run_classical_sim(p, steps=1500, x0=(0.3, -0.4))
    assert rows.shape == (1501, 9)
    dev = {c.id: c.deviation for c in rep.checks}
    charges = [NoetherCharges(*r[5:]) for r in rows.tolist()]
    rel = 0.0
    for c in charges:
        resid = c.T1 ** 2 + c.T2 ** 2 - 2.0 * p.m * c.E - 2.0 * p.qB * c.M3
        scale = max(c.T1 ** 2 + c.T2 ** 2, 2.0 * p.m * abs(c.E),
                    2.0 * abs(p.qB * c.M3), 1.0)
        rel = max(rel, abs(resid) / scale)
    assert dev["relation-residual"] == rel
    q0 = charges[0]
    drift_e = max(abs(c.E - q0.E) for c in charges)
    assert dev["drift:E"] == (0.0 if drift_e == 0.0
                              else drift_e / max(abs(q0.E), 1.0e-300))
