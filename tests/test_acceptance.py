"""Acceptance suite: every exit criterion at its pinned tolerance, one
pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.
"""

import math
import time

import numpy as np
import pytest

from landaulab import GaugeChoice, PhysicalParams, Poly2
from landaulab import campaigns as cp
from landaulab import classical as cl
from landaulab import fockspace as fk
from landaulab import quadrature as qd
from landaulab import waves as wv
from landaulab.classical import (PolyObservable, energy_observable,
                                 poisson_bracket, rotation_observable,
                                 translation_observable)

P = PhysicalParams(1, 1, 1)


def _report_criterion(num, label, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"[{flag}] criterion {num}: {label} ({detail})")
    assert passed, f"criterion {num}: {label} ({detail})"


@pytest.fixture(scope="module")
def algebra_report():
    t0 = time.perf_counter()
    rep = cp.run_verify_algebra(P, nmax=16, tol=1e-12)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tables_report():
    t0 = time.perf_counter()
    rep, rows = cp.run_reproduce_tables(P, nmax=16, grid_k=80, tol=1e-8)
    return rep, rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gauge_scan_report():
    return cp.run_gauge_scan(P, gauges=cp.default_gauges(7), nmax=16,
                             grid_k=80, seed=7, tol=1e-8)


def _tolerances(checks) -> set:
    return {c.tolerance for c in checks}


def test_criterion_1_algebra_suite(algebra_report):
    rep, elapsed = algebra_report
    comms = [c for c in rep.checks if c.id.startswith("comm:")]
    relation = [c for c in rep.checks if c.id == "charge-relation"]
    assert len(comms) >= 12 and len(relation) == 1
    assert _tolerances(comms + relation) == {1e-12}
    worst = max(c.deviation for c in comms + relation)
    ok = all(c.passed for c in comms + relation) and elapsed < 5.0
    _report_criterion(1, "operator algebra, 1e-12 on the exact entries", ok,
                      f"max deviation {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_spectrum(algebra_report):
    rep, _ = algebra_report
    spectrum = {c.id: c for c in rep.checks if c.id.startswith("spectrum:")}
    b = fk.FockBasis(16)
    h = fk.build_observable("H", P, (0.0, 0.0), b)
    exact = all(h.element((npl, nm), (npl, nm)) == nm + 0.5
                for nm in range(17) for npl in range(17))
    ok = (spectrum["spectrum:landau-levels"].deviation == 0.0
          and spectrum["spectrum:degeneracy"].deviation == 0.0 and exact)
    _report_criterion(2, "Landau-level spectrum bitwise with full degeneracy",
                      ok, "diagonal and degeneracy deviations 0.0")


def test_criterion_3_angular_table(tables_report):
    rep, _, elapsed = tables_report
    alg = [c for c in rep.checks if c.id.startswith("angular:")
           and c.id.endswith("closed-vs-matrix")]
    quad_checks = [c for c in rep.checks if c.id.startswith("angular:")
                   and c.id.endswith("closed-vs-quadrature")]
    assert len(alg) == 6 and len(quad_checks) == 6
    assert _tolerances(alg) == {1e-12} and _tolerances(quad_checks) == {1e-8}
    ok = (all(c.passed for c in alg + quad_checks) and elapsed < 60.0)
    worst_a = max(c.deviation for c in alg)
    worst_q = max(c.deviation for c in quad_checks)
    _report_criterion(3, "angular-basis table via three routes", ok,
                      f"algebraic {worst_a:.2e}, quadrature {worst_q:.2e}, "
                      f"{elapsed:.1f} s")


def test_criterion_4_t1_table(tables_report):
    rep, _, _ = tables_report
    t1_checks = [c for c in rep.checks if c.id.startswith("t1:")]
    assert len(t1_checks) == 6
    assert _tolerances(t1_checks) == {1e-8}
    ok = all(c.passed for c in t1_checks)
    worst = max(c.deviation for c in t1_checks)
    _report_criterion(4, "translation-eigenbasis table kernels to 1e-8", ok,
                      f"max deviation {worst:.2e}")


def test_criterion_5_basis_change():
    rep = cp.run_basis_change(P, grid_k=80, tol=1e-8)
    by_id = {c.id: c for c in rep.checks}
    quad_ids = ("closed-vs-quadrature", "orthonormality", "level-phase")
    assert _tolerances(by_id[i] for i in quad_ids) == {1e-8}
    assert by_id["reconstruction"].tolerance == 1e-7
    ok = (by_id["closed-vs-quadrature"].passed
          and by_id["orthonormality"].passed
          and by_id["reconstruction"].passed
          and by_id["level-phase"].passed)
    _report_criterion(
        5, "basis change: closed form 1e-8, reconstruction 1e-7", ok,
        ", ".join(f"{c.id}={c.deviation:.2e}" for c in rep.checks))


def test_criterion_6_gauge_invariance(gauge_scan_report):
    rep = gauge_scan_report
    inv = [c for c in rep.checks if c.id.startswith("invariance:")]
    dec = [c for c in rep.checks if c.id.startswith("decomposition:")
           or c.id.startswith("matrix-route:")
           or c.id == "canonical-shift:predicted"]
    moved = [c for c in rep.checks if c.id == "canonical-shift:nonzero"]
    assert len(inv) == 7 and len(moved) == 1
    assert _tolerances(inv + dec) == {1e-8} and _tolerances(moved) == {0.0}
    ok = all(c.passed for c in inv + dec + moved)
    _report_criterion(
        6, "gauge invariance across 7 gauges with variant decompositions",
        ok, f"max spread {max(c.deviation for c in inv):.2e}, "
            f"max decomposition residual {max(c.deviation for c in dec):.2e}")


def test_criterion_7_flat_connection_demo():
    rep = cp.run_heisenberg_demo(P, grid_k=80, tol=1e-10)
    assert len(rep.checks) == 3
    assert _tolerances(rep.checks) == {1e-10}
    ok = rep.passed
    _report_criterion(
        7, "flat-connection representations agree to 1e-10", ok,
        f"max deviation {max(c.deviation for c in rep.checks):.2e}")


def test_criterion_8_classical_suite():
    rep, _ = cp.run_classical_sim(P, tol=1e-8)
    by_id = {c.id: c for c in rep.checks}
    drifts = [by_id[f"drift:{q}"] for q in ("E", "T1", "T2", "M3")]
    ode = by_id["ode-residual"]
    assert _tolerances(drifts) == {1e-8} and ode.tolerance == 1e-10
    # coefficient-level Poisson identities
    t1 = translation_observable(1, P)
    t2 = translation_observable(2, P)
    h = energy_observable(P)
    m3 = rotation_observable(P)
    exact = (
        poisson_bracket(t1, h, P).is_zero()
        and poisson_bracket(m3, h, P).is_zero()
        and poisson_bracket(t1, t2, P) == PolyObservable.const(-P.qB)
        and poisson_bracket(t1, m3, P) == -1.0 * t2
        and (t1 * t1 + t2 * t2 - 2.0 * P.m * h - 2.0 * P.qB * m3).is_zero())
    ok = all(c.passed for c in drifts) and ode.passed and exact
    _report_criterion(
        8, "classical charges 1e-8, trajectory 1e-10, exact brackets", ok,
        f"max drift {max(c.deviation for c in drifts):.2e}, "
        f"ode residual {ode.deviation:.2e}")
