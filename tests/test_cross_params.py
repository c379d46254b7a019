"""The campaigns must hold for arbitrary physical parameters, in particular
under orientation reversal (s = -1) where every angular phase flips, and
under rescaled hbar."""

import math
import struct

import numpy as np
import pytest

from landaulab import GaugeChoice, PhysicalParams, parse_poly
from landaulab import campaigns as cp
from landaulab import fockspace as fk
from landaulab import quadrature as quad
from landaulab import waves as wv
from landaulab.classical import NoetherCharges, TrajectoryParams

PARAM_SETS = [
    PhysicalParams(1.3, -0.8, 1.7, hbar=0.6),   # s = -1
    PhysicalParams(2.0, 1.5, -0.9, hbar=2.0),   # s = -1, heavy, hbar > 1
    PhysicalParams(0.7, -1.1, -1.3),            # s = +1 via double flip
]


@pytest.mark.parametrize("p", PARAM_SETS, ids=lambda p: f"s{p.sign}_w{p.omega_c:.2f}")
def test_algebra_suite_any_parameters(p):
    rep = cp.run_verify_algebra(p, nmax=12)
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
                            grid_k=64, levels=2)
    assert rep.passed, [c.id for c in rep.checks if not c.passed]


def test_flat_connection_demo_any_parameters():
    rep = cp.run_heisenberg_demo(PhysicalParams(0.7, -1.1, -1.3), grid_k=64)
    assert rep.passed


@pytest.mark.parametrize("p", PARAM_SETS, ids=lambda p: f"s{p.sign}_w{p.omega_c:.2f}")
def test_classical_suite_any_parameters(p):
    rep, _ = cp.run_classical_sim(p, steps=3000)
    assert rep.passed, [c.id for c in rep.checks if not c.passed]


@pytest.mark.parametrize("p", [PhysicalParams(1, 1, 1), *PARAM_SETS],
                         ids=lambda p: f"s{p.sign}_w{p.omega_c:.2f}")
def test_ode_residual_does_not_depend_on_the_centre(p):
    # the stencils difference the displacement from the guiding centre, so
    # an orbit 1e4 magnetic lengths out reads the bits of one about the
    # origin, and passes
    devs = set()
    for far in (0.0, 1e2, 1e3, 1e4):
        xc = (far * p.magnetic_length, -0.5 * far * p.magnetic_length)
        tp = TrajectoryParams(0.5 * p.hbar * p.omega_c, xc)
        rep, _ = cp.run_classical_sim(p, tp, steps=200)
        ode = {c.id: c for c in rep.checks}["ode-residual"]
        assert ode.passed, (far, ode.deviation)
        devs.add(ode.deviation)
    assert len(devs) == 1


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


def _basis_change_line_checks(p, g, grid_k, seed=7):
    """The orthonormality and reconstruction deviations as the per-node
    loops computed them: one coefficient pair and one translation state per
    node, one point, at shifted coordinates u, at a time."""
    sig = math.sqrt(p.hbar * p.m * p.omega_c)
    ortho = 0.0
    for npl in range(11):
        for mpl in range(npl + 1):
            def f(t, a=npl, b=mpl):
                return np.array([fk.change_of_basis(a, tt, p)
                                 * np.conj(fk.change_of_basis(b, tt, p))
                                 for tt in t])
            val = quad.line_integral(f, k=grid_k, scale=sig)
            ortho = np.maximum(ortho, abs(val - (1.0 if npl == mpl else 0.0)))
    rng = np.random.default_rng(seed)
    pts = p.magnetic_length * rng.uniform(-2.5, 2.5, size=(20, 2))
    amp = math.sqrt(p.m * p.omega_c / (2.0 * math.pi * p.hbar))
    rec_dev = 0.0
    for (npl, nm) in ((0, 0), (1, 0), (2, 1), (1, 2), (3, 2)):
        target = wv.fock_state(g, p, npl, nm)
        for (u1, u2) in pts:
            def f(t):
                return np.array([
                    wv.t1_state(g, p, float(tt), nm).jet(u1, u2, 0).f
                    * np.conj(fk.t1_fock_overlap(npl, nm, float(tt), p))
                    for tt in t])
            rec = quad.line_integral(f, k=max(60, grid_k), scale=sig)
            rec_dev = np.maximum(rec_dev,
                                 abs(rec - target.jet(u1, u2, 0).f) / amp)
    return {"orthonormality": ortho, "reconstruction": rec_dev}


@pytest.mark.parametrize("grid_k", [56, 64])
@pytest.mark.parametrize("p, g", [
    (PhysicalParams(1, 1, 1), GaugeChoice(0.0)),
    (PhysicalParams(1.0, -1.0, 1.0, hbar=0.6),
     GaugeChoice(0.37, (0.3, -0.2),
                 parse_poly("0.05*u1^2*u2 - 0.1*u1 + 0.02*u2^3"))),
], ids=["unit", "variant"])
def test_basis_change_line_checks_match_per_node_loops(p, g, grid_k):
    # the campaign evaluates its line integrands over node tables; each
    # deviation must keep the bits of the per-node loops above
    rep = cp.run_basis_change(p, gauge=g, grid_k=grid_k)
    got = {c.id: c.deviation for c in rep.checks}
    for cid, want in _basis_change_line_checks(p, g, grid_k).items():
        assert struct.pack("<d", got[cid]) == struct.pack("<d", want), cid


def test_table_checks_match_per_element_loops():
    # negative charge, non-unit parameters and a sheared cubic gauge: the
    # array reads of the closed-form table keep the bits of the loops over
    # one label pair at a time
    p = PhysicalParams(1.3, -1.0, 0.7, hbar=0.6)
    g = GaugeChoice(0.37, (0.3, -0.2),
                    parse_poly("0.05*u1^2*u2 - 0.1*u1 + 0.02*u2^3"))
    rep, rows = cp.run_reproduce_tables(p, nmax=8, grid_k=56, gauge=g,
                                        idx_top=4)
    got = {c.id: c.deviation for c in rep.checks}
    basis = fk.FockBasis(8)
    wide = cp._angular_states(4)
    for name in cp._TABLE_OPS:
        mat = fk.build_observable(name, p, g.x0, basis)
        want = np.max([abs(fk.angular_element(name, l1, n1, l2, n2, p)
                           - mat.element((n1 + l1, n1), (n2 + l2, n2)))
                       for (l1, n1) in wide for (l2, n2) in wide])
        assert struct.pack("<d", got[f"angular:{name}:closed-vs-matrix"]) \
            == struct.pack("<d", want), name
    angular = [r for r in rows if r[0] == "angular"]
    assert len(angular) == len(cp._TABLE_OPS) * len(
        cp._neighbour_pairs(cp._angular_states(4)))
    for _, name, (l1, n1, l2, n2), closed, val, err in angular:
        want = complex(fk.angular_element(name, l1, n1, l2, n2, p))
        assert struct.pack("<dd", want.real, want.imag) \
            == struct.pack("<dd", complex(closed).real, complex(closed).imag)
        assert err == abs(closed - val)
