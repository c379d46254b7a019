import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from landaulab import GaugeChoice, PhysicalParams, Poly2, gauge_delta, parse_poly
from landaulab.classical import PolyObservable, observables, poisson_bracket
from landaulab.fockspace import change_of_basis, t1_fock_overlap
from landaulab.params import DegreeOverflowError
from landaulab.waves import (MAX_QUANTUM_NUMBER, DiffOpSpec,
                             QuantumNumberError, SpecialFactor, WaveForm,
                             fock_state, gauge_phase, hermite, laguerre,
                             gauge_connection, phase_shifted, plane_wave,
                             position_ops, schrodinger_op, t1_basis_function,
                             t1_state, t1rep_op)

P = PhysicalParams(1, 1, 1)
SYM = GaugeChoice(0.0)
# a deliberately awkward gauge used throughout: shear, shifted origin,
# polynomial gauge function
GEN = GaugeChoice(0.37, (0.2, -0.1), parse_poly("0.05*u1^2 - 0.1*u2 + 0.02*u1*u2^2"))


def _op(name, g, p):
    """The wave-function operator of one named observable in the gauge g."""
    return position_ops([name], g, p)[name]


def _momentum(conn, i, hbar):
    """p_i on wave functions with the connection ``conn``."""
    return schrodinger_op(PolyObservable.coordinate(f"p{i}"), conn, hbar)


# -- special functions ---------------------------------------------------------


def test_hermite_small_orders():
    assert hermite(2, 1.0) == 2.0
    assert hermite(0, 0.3) == 1.0
    assert hermite(1, -0.4) == -0.8


def test_laguerre_small_orders():
    assert laguerre(1, 0, 0.5) == 0.5
    assert laguerre(0, 3, 1.7) == 1.0


def _hermite_series(n, x):
    # explicit closed-form sum, the independent oracle
    total = 0.0
    for m in range(n // 2 + 1):
        total += ((-1) ** m / (math.factorial(m) * math.factorial(n - 2 * m))
                  * (2 * x) ** (n - 2 * m))
    return math.factorial(n) * total


def test_hermite_recurrence_matches_series():
    for n in (3, 5, 8):
        for x in (0.7, -1.3, 2.4):
            assert hermite(n, x) == pytest.approx(_hermite_series(n, x),
                                                  rel=1e-12)


def test_hermite_differential_equation():
    rng = np.random.default_rng(2)
    for n in range(1, 11):
        x = rng.uniform(-3, 3, size=20)
        h = hermite(n, x)
        hp = 2 * n * hermite(n - 1, x)
        hpp = 4 * n * (n - 1) * hermite(n - 2, x) if n >= 2 else 0 * x
        resid = hpp - 2 * x * hp + 2 * n * h
        scale = np.max(np.abs(h)) + np.max(np.abs(x * hp))
        assert np.max(np.abs(resid)) < 1e-9 * scale


def test_laguerre_derivative_recurrence_vs_fd():
    rng = np.random.default_rng(8)
    h = 1e-6
    for n in (1, 3, 6):
        for m in (0, 2):
            x = rng.uniform(0.2, 4.0, size=10)
            fd = (laguerre(n, m, x + h) - laguerre(n, m, x - h)) / (2 * h)
            assert np.allclose(-laguerre(n - 1, m + 1, x), fd,
                               rtol=1e-8, atol=1e-8)


def test_negative_orders_rejected():
    with pytest.raises(ValueError):
        hermite(-1, 0.0)
    with pytest.raises(ValueError):
        laguerre(1, -2, 0.0)


# -- translation eigenstates ---------------------------------------------------


def test_t1_state_value_at_origin():
    psi = t1_state(SYM, P, 0.0, 0)
    expected = (2 * math.pi) ** -0.5 * math.pi ** -0.25
    assert psi.value(0.0, 0.0) == pytest.approx(expected, rel=1e-15)


def test_t1_state_peaks_on_centre_line():
    t1 = 0.8
    centre = -t1 / P.qB      # x0_2 - t1/(qB) with x0 = 0
    psi = t1_state(SYM, P, t1, 0)
    xs = np.linspace(centre - 2, centre + 2, 401)
    mags = np.abs(psi.value(0.3, xs))
    assert abs(xs[np.argmax(mags)] - centre) < 2e-2
    # magnitude symmetric about the centre line for every level
    for n in (0, 1, 3):
        psi_n = t1_state(GEN, P, t1, n)
        c = GEN.x0[1] - t1 / P.qB
        d = np.linspace(0.1, 1.5, 7)
        assert np.allclose(np.abs(psi_n.value(1.0, c + d)),
                           np.abs(psi_n.value(1.0, c - d)), rtol=1e-12)


def test_t1_state_transverse_normalisation():
    # delta-normalisation leaves density 1/(2 pi hbar) per unit length
    t, w = hermgauss(60)
    for p in (P, PhysicalParams(1.3, -0.7, 1.9, hbar=0.5)):
        g = GaugeChoice(0.37, (0.2, -0.1))
        psi = t1_state(g, p, 0.45, 2)
        sig = math.sqrt(p.hbar / (p.m * p.omega_c))
        centre = g.x0[1] - 0.45 / p.qB
        x2 = centre + sig * t
        vals = psi.value(1.1, x2)
        total = float(np.sum(w * np.exp(t * t) * np.abs(vals) ** 2) * sig)
        assert total == pytest.approx(1.0 / (2 * math.pi * p.hbar), rel=1e-10)


# -- angular (Fock) eigenstates --------------------------------------------------


def test_fock_vacuum_value_at_origin():
    psi = fock_state(SYM, P, 0, 0)
    assert psi.value(0.0, 0.0) == pytest.approx(math.sqrt(1 / (2 * math.pi)),
                                                rel=1e-15)


def test_fock_state_with_angular_momentum_vanishes_at_origin():
    psi = fock_state(GEN, P, 1, 0)
    assert psi.value(GEN.x0[0], GEN.x0[1]) == 0


def test_fock_state_matches_ladder_polynomial():
    # |1,1> wave function equals (v^2 - 1) * vacuum for s = +1
    psi11 = fock_state(SYM, P, 1, 1)
    psi00 = fock_state(SYM, P, 0, 0)
    x = np.linspace(-2, 2, 9)
    for x2 in (-0.7, 0.4):
        v2 = (x ** 2 + x2 ** 2) / 2
        assert np.allclose(psi11.value(x, x2), (v2 - 1) * psi00.value(x, x2),
                           rtol=0, atol=1e-14)


# -- gauge phases ----------------------------------------------------------------


def test_gauge_phase_identity_and_modulus():
    assert gauge_phase(Poly2.zero(), 1.0, 1.0, 0.3, -0.4) == 1.0
    rng = np.random.default_rng(3)
    delta = parse_poly("0.3*u1^2*u2 - 0.7*u2^2")
    pts = rng.uniform(-3, 3, size=(100, 2))
    vals = gauge_phase(delta, 2.0, 0.7, pts[:, 0], pts[:, 1])
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-15


@pytest.mark.parametrize("family,label", [
    ("fock", (2, 1)), ("t1", (0.6, 1)),
])
def test_wave_functions_gauge_covariant(family, label):
    g2 = GaugeChoice(1.25, GEN.x0, parse_poly("0.125*u2^3 - 0.5*u1"))
    delta = gauge_delta(GEN, g2, P)
    if family == "fock":
        psi_a, psi_b = fock_state(g2, P, *label), fock_state(GEN, P, *label)
    else:
        psi_a, psi_b = t1_state(g2, P, *label), t1_state(GEN, P, *label)
    # exact identity of the factored forms
    assert psi_a.phase - psi_b.phase == (P.q / P.hbar) * delta
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(40, 2)) + np.asarray(GEN.x0)
    u = pts - np.asarray(GEN.x0)
    lhs = psi_a.value(pts[:, 0], pts[:, 1])
    rhs = gauge_phase(delta, P.q, P.hbar, u[:, 0], u[:, 1]) \
        * psi_b.value(pts[:, 0], pts[:, 1])
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)


# -- analytic derivatives ----------------------------------------------------------


def _fd_jet(psi, x1, x2, h):
    f1 = (psi.value(x1 + h, x2) - psi.value(x1 - h, x2)) / (2 * h)
    f2 = (psi.value(x1, x2 + h) - psi.value(x1, x2 - h)) / (2 * h)
    return f1, f2


@pytest.mark.parametrize("make", [
    lambda: fock_state(GEN, P, 2, 1),
    lambda: fock_state(GEN, P, 0, 3),
    lambda: t1_state(GEN, P, 0.8, 2),
    lambda: plane_wave((0.5, -1.2), 1.0),
])
def test_gradient_matches_finite_differences(make):
    psi = make()
    h = 1e-4 * P.magnetic_length
    rng = np.random.default_rng(17)
    pts = rng.uniform(-2, 2, size=(100, 2))
    jet = psi.jet(*psi.shifted(pts[:, 0], pts[:, 1]))
    fd1, fd2 = _fd_jet(psi, pts[:, 0], pts[:, 1], h)
    scale = np.max(np.abs(jet.f1)) + np.max(np.abs(jet.f2)) + 1e-30
    assert np.max(np.abs(jet.f1 - fd1)) < 1e-6 * scale
    assert np.max(np.abs(jet.f2 - fd2)) < 1e-6 * scale


def test_second_derivatives_match_finite_differences():
    psi = fock_state(GEN, P, 1, 2)
    h = 2e-4
    x1 = np.linspace(-1.2, 1.4, 11)
    x2 = np.linspace(-0.9, 1.1, 11)
    jet = psi.jet(*psi.shifted(x1, x2))
    f11 = (psi.value(x1 + h, x2) - 2 * psi.value(x1, x2)
           + psi.value(x1 - h, x2)) / h ** 2
    f22 = (psi.value(x1, x2 + h) - 2 * psi.value(x1, x2)
           + psi.value(x1, x2 - h)) / h ** 2
    f12 = (psi.value(x1 + h, x2 + h) - psi.value(x1 + h, x2 - h)
           - psi.value(x1 - h, x2 + h) + psi.value(x1 - h, x2 - h)) / (4 * h ** 2)
    for exact, fd in ((jet.f11, f11), (jet.f22, f22), (jet.f12, f12)):
        assert np.max(np.abs(exact - fd)) < 1e-5 * (np.max(np.abs(exact)) + 1)


# -- position-space operators -------------------------------------------------------


def _grid_points():
    # covers the 6-sigma support region of the low states
    x1 = np.linspace(-4.3, 4.1, 12) + GEN.x0[0]
    x2 = np.linspace(-4.1, 4.4, 12) + GEN.x0[1]
    return np.meshgrid(x1, x2)


def test_energy_eigenrelation_pointwise():
    X1, X2 = _grid_points()
    op = _op("H", GEN, P)
    for (nplus, nminus) in ((0, 0), (2, 1), (1, 3)):
        psi = fock_state(GEN, P, nplus, nminus)
        lhs = op.apply(psi, X1, X2)
        rhs = (nminus + 0.5) * psi.value(X1, X2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))


def test_translation_eigenrelation_pointwise():
    X1, X2 = _grid_points()
    op = _op("T1", GEN, P)
    for (t1, n) in ((0.0, 0), (0.75, 2)):
        psi = t1_state(GEN, P, t1, n)
        lhs = op.apply(psi, X1, X2)
        assert np.max(np.abs(lhs - t1 * psi.value(X1, X2))) \
            < 1e-10 * np.max(np.abs(psi.value(X1, X2))) + 1e-14


def test_rotation_eigenrelation_pointwise():
    X1, X2 = _grid_points()
    op = _op("M3", GEN, P)
    for (nplus, nminus) in ((0, 0), (3, 1), (0, 2)):
        psi = fock_state(GEN, P, nplus, nminus)
        lhs = op.apply(psi, X1, X2)
        rhs = (nplus - nminus) * psi.value(X1, X2)
        scale = np.max(np.abs(psi.value(X1, X2)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_unknown_position_op():
    with pytest.raises(KeyError):
        _op("badname", GEN, P)


def test_compose_matches_manual_application():
    x1op = DiffOpSpec(c=Poly2.variable(1))
    p1op = _op("pi1", GEN, P)
    combo = x1op.compose(p1op)
    psi = fock_state(GEN, P, 1, 1)
    X1, X2 = _grid_points()
    jet = psi.jet(*psi.shifted(X1, X2))
    manual = (X1 - GEN.x0[0]) * (-1j * P.hbar * jet.f1)
    assert np.allclose(combo.apply(psi, X1, X2), manual, rtol=0, atol=1e-13)


def test_compose_order_guard():
    p1 = _op("pi1", GEN, P)
    psq = p1.compose(p1)
    with pytest.raises(ValueError):
        psq.compose(p1)


def test_compose_mixed_second_derivative():
    op = _op("pi1", GEN, P).compose(_op("pi2", GEN, P))
    assert op.a12 == Poly2.const(complex(-P.hbar ** 2, 0.0))
    psi = fock_state(GEN, P, 2, 1)
    X1, X2 = _grid_points()
    jet = psi.jet(*psi.shifted(X1, X2))
    assert np.allclose(op.apply(psi, X1, X2), -P.hbar ** 2 * jet.f12,
                       rtol=0, atol=1e-13)


def test_hamiltonian_operator_expansion():
    # second-order coefficients are -hbar^2/(2m) on the diagonal
    op = _op("H", GEN, P)
    assert op.a11 == Poly2.const(complex(-P.hbar ** 2 / (2 * P.m), 0.0))
    assert op.a22 == Poly2.const(complex(-P.hbar ** 2 / (2 * P.m), 0.0))
    assert op.a12.is_zero()


# -- the Schrodinger map of the classical table -------------------------------

EPS = np.finfo(float).eps


def _largest(op):
    """The largest modulus of a coefficient of a DiffOpSpec."""
    return max((abs(c) for poly in op.coefficients
                for c in poly.terms.values()), default=0.0)


def _key(*exponents, c=1.0):
    return PolyObservable({exponents: c})


def test_schrodinger_op_is_the_symmetrised_operator_product():
    # u^a p_j is half the sum of both orders of u^a and P_j, and p_i p_j of
    # P_i and P_j, each composed by DiffOpSpec.compose; u1 p1 carries the
    # Weyl term -i hbar / 2 and u1 p2 none
    conn = gauge_connection(GEN, NEG)
    hb = NEG.hbar
    u1 = DiffOpSpec(c=Poly2.variable(1))
    p1, p2 = (schrodinger_op(_key(0, 0, *e), conn, hb)
              for e in ((1, 0), (0, 1)))
    assert p1 == DiffOpSpec(c=conn[0], b1=Poly2.const(complex(0.0, -hb)))
    want = {(1, 0, 1, 0): 0.5 * (u1.compose(p1) + p1.compose(u1)),
            (1, 0, 0, 1): 0.5 * (u1.compose(p2) + p2.compose(u1)),
            (0, 0, 2, 0): p1.compose(p1),
            (0, 0, 1, 1): 0.5 * (p1.compose(p2) + p2.compose(p1))}
    for key, op in want.items():
        gap = schrodinger_op(_key(*key), conn, hb) - op
        assert _largest(gap) <= 4 * EPS * _largest(op), key
    weyl = schrodinger_op(_key(1, 0, 1, 0), conn, hb) \
        - u1.compose(p1)
    assert weyl == DiffOpSpec(c=Poly2.const(complex(0.0, -0.5 * hb)))
    assert (0, 0) not in schrodinger_op(_key(1, 0, 0, 1), conn, hb).c.terms


def test_schrodinger_op_refuses_momentum_beyond_degree_two():
    # Weyl's map is exact only up to degree 2 (Groenewold 1946); a position
    # key of any degree multiplies
    conn = gauge_connection(GEN, P)
    for key in ((0, 0, 3, 0), (1, 0, 2, 0), (0, 0, 1, 2), (2, 0, 1, 0)):
        with pytest.raises(DegreeOverflowError, match="degree 2"):
            schrodinger_op(_key(*key), conn, P.hbar)
    assert schrodinger_op(_key(3, 1, 0, 0), conn, P.hbar) \
        == DiffOpSpec(c=Poly2.monomial(3, 1))


def test_canonical_momenta_are_plain_derivatives_in_their_gauge():
    # p + q A(u) with p = -i hbar grad - q A: the connection cancels exactly,
    # coefficient by coefficient, in pi1, pi2 and L3c
    mih = complex(0.0, -NEG.hbar)
    u1, u2 = Poly2.variable(1), Poly2.variable(2)
    ops = position_ops(["pi1", "pi2", "L3c"], GEN, NEG)
    assert ops["pi1"] == DiffOpSpec(b1=Poly2.const(mih))
    assert ops["pi2"] == DiffOpSpec(b2=Poly2.const(mih))
    assert ops["L3c"] == DiffOpSpec(b1=-mih * u2, b2=mih * u1)


_FIRST_ORDER = ("T1", "T2", "M3", "p1", "p2", "L3", "xc1", "xc2", "x1",
                "x2", "u1", "u2", "pi1", "pi2", "L3c")
# keys linear in p with affine coefficients, and position keys to degree 3
_LINEAR_KEYS = [(i, j, a, b) for i in range(4) for j in range(4)
                for a, b in ((0, 0), (1, 0), (0, 1))
                if i + j + a + b <= (2 if a + b else 3)]


@st.composite
def _gauged_tables(draw):
    """Parameters of either orientation, a gauge with shear, a cubic gauge
    function and an off-origin x0, and two random polynomials linear in p."""
    unit = st.floats(0.5, 2.0)
    sign = draw(st.sampled_from([1.0, -1.0]))
    p = PhysicalParams(draw(unit), sign * draw(unit), draw(unit),
                       hbar=draw(st.floats(0.6, 1.8)))
    phi = Poly2({(i, j): draw(st.floats(-0.1, 0.1)) for i in range(4)
                 for j in range(4) if 0 < i + j <= 3 and draw(st.booleans())})
    g = GaugeChoice(draw(st.floats(-2.0, 2.0)),
                    (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))),
                    phi)
    linear = [PolyObservable({key: draw(st.floats(-1.0, 1.0))
                              for key in _LINEAR_KEYS if draw(st.booleans())})
              for _ in range(2)]
    return p, g, linear


@settings(max_examples=12, deadline=None)
@given(_gauged_tables())
def test_schrodinger_map_sends_brackets_to_commutators(case):
    # S(f) S(g) - S(g) S(f) = i hbar S({f, g}) with the magnetic bracket,
    # coefficient by coefficient, to rounding, for every pair of the
    # table's first-order entries in the drawn gauge and the random
    # polynomials linear in p
    p, g, linear = case
    f = observables(p, g)
    polys = [f[name] for name in _FIRST_ORDER] + linear
    conn = gauge_connection(g, p)
    ops = [schrodinger_op(h, conn, p.hbar) for h in polys]
    worst = 0.0
    for i, (fa, a) in enumerate(zip(polys, ops)):
        for fb, b in zip(polys[i + 1:], ops[i + 1:]):
            bracket = schrodinger_op(poisson_bracket(fa, fb, p), conn, p.hbar)
            gap = a.compose(b) - b.compose(a) - (1j * p.hbar) * bracket
            scale = (1.0 + _largest(a)) * (1.0 + _largest(b))
            worst = max(worst, _largest(gap) / scale)
    assert worst <= 16 * EPS


# -- flat connections ------------------------------------------------------------


def test_plane_wave_momentum_eigenfunction():
    k = (0.8, -0.3)
    psi = plane_wave(k, P.hbar)
    zero = (Poly2.zero(), Poly2.zero())
    pts = np.random.default_rng(1).uniform(-2, 2, size=(30, 2))
    for i in (1, 2):
        vals = _momentum(zero, i, P.hbar).apply(
            psi, pts[:, 0], pts[:, 1])
        assert np.allclose(vals, k[i - 1] * psi.value(pts[:, 0], pts[:, 1]),
                           rtol=0, atol=1e-14)


def test_pure_gauge_conjugation_identity():
    lam = parse_poly("0.4*u1^2 - 0.3*u1*u2 + 0.2*u2^3")
    v = (lam.diff(1), lam.diff(2))
    psi = fock_state(SYM, P, 1, 1)
    shifted = phase_shifted(psi, lam, P.hbar)
    pts = np.random.default_rng(5).uniform(-2, 2, size=(50, 2))
    x1, x2 = pts[:, 0], pts[:, 1]
    for i in (1, 2):
        lhs = _momentum(v, i, P.hbar).apply(shifted, x1, x2)
        jet = psi.jet(x1, x2)
        plain = -1j * P.hbar * (jet.f1 if i == 1 else jet.f2)
        rhs = np.exp(-1j * lam(x1, x2) / P.hbar) * plain
        assert np.max(np.abs(lhs - rhs)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["fock", "t1"]), n=st.integers(0, 8),
       m=st.integers(0, 8), t1=st.sampled_from([0.0, 0.45, -1.3]),
       g=st.sampled_from([SYM, GaugeChoice(1.0), GEN]),
       sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2 ** 32 - 1))
# zero phase polynomial: the symmetric-gauge Fock states, and the
# Landau-gauge translation state at t1 = 0
@example(family="fock", n=2, m=1, t1=0.0, g=SYM, sign=1.0, seed=0)
@example(family="fock", n=0, m=3, t1=0.0, g=SYM, sign=-1.0, seed=1)
@example(family="t1", n=3, m=0, t1=0.0, g=GaugeChoice(1.0), sign=1.0, seed=2)
def test_value_is_the_jets_value(family, n, m, t1, g, sign, seed):
    p = PhysicalParams(1.3, sign, 0.7, hbar=0.6)
    psi = (fock_state(g, p, n, m) if family == "fock"
           else t1_state(g, p, t1 * p.magnetic_length, n))
    rng = np.random.default_rng(seed)
    x1, x2 = rng.uniform(-4, 4, (2, 500)) * p.magnetic_length
    x1, x2 = x1 + g.x0[0], x2 + g.x0[1]
    u = psi.shifted(x1, x2)
    value = psi.value(x1, x2)
    assert value.tobytes() == psi.jet(*u).f.tobytes()
    dressed = phase_shifted(psi, parse_poly("0.2*u1*u2 - 0.3*u2"), p.hbar)
    assert dressed.value(x1, x2).tobytes() == dressed.jet(*u).f.tobytes()


def test_zero_phase_takes_the_real_exponential():
    # numpy's real exp and its complex exp of (x, 0) differ in the last bit
    # for about 5 % of arguments; a zero phase takes the real one
    x1, x2 = np.random.default_rng(4).uniform(-5, 5, (2, 2000))
    landau = GaugeChoice(1.0)
    for psi in (fock_state(SYM, P, 1, 2), t1_state(landau, P, 0.0, 3)):
        assert psi.phase.is_zero()
        u1, u2 = psi.shifted(x1, x2)
        want = psi.coeff * psi.poly(u1, u2) * np.exp(-psi.gauss(u1, u2)) \
            * psi.special.chain_values(psi.special.arg(u1, u2))[0]
        assert psi.value(x1, x2).tobytes() == want.tobytes()


NEG = PhysicalParams(1.3, -1.0, 0.7, hbar=0.6)  # the other orientation


@pytest.mark.parametrize("psi", [
    fock_state(GEN, P, 3, 1), fock_state(GEN, P, 1, 3),
    fock_state(GEN, NEG, 3, 1), fock_state(GEN, NEG, 1, 3),
    t1_state(GEN, NEG, 0.45, 2), t1_basis_function(3, NEG),
    phase_shifted(fock_state(GEN, P, 2, 0), parse_poly("0.2*u1*u2 - 0.3*u2"),
                  P.hbar),
    plane_wave((0.5, -0.3), 0.6, (0.2, -0.1)),
], ids=["fock-l>0", "fock-l<0", "fock-l>0-neg", "fock-l<0-neg", "t1",
        "t1-basis", "phase-shifted", "plane-wave"])
def test_jet_slots_agree_across_orders(psi):
    # a jet to order 0 or 1 holds the full jet's slots up to its order, bit
    # for bit, and None above it; the value is the order-0 jet's
    t = 3.0 * np.polynomial.hermite.hermgauss(56)[0]
    x1, x2 = (a.ravel() for a in np.meshgrid(t + 0.2, t - 0.1))
    full = psi.jet(x1, x2)
    assert all(slot is not None for slot in full)
    for order, size in ((0, 1), (1, 3), (2, 6)):
        jet = psi.jet(x1, x2, order)
        assert [a.tobytes() for a in jet[:size]] == \
            [a.tobytes() for a in full[:size]]
        assert all(slot is None for slot in jet[size:])
    assert psi.value(x1, x2).tobytes() \
        == psi.jet(*psi.shifted(x1, x2), 0).f.tobytes()


@pytest.mark.parametrize("name, order", [("x1", 0), ("T1", 1), ("H", 2)])
def test_apply_jets_to_the_operator_order(monkeypatch, name, order):
    # apply jets the wave function to the operator's order only, and keeps
    # the bits of apply_jet on the full jet
    op = _op(name, GEN, NEG)
    assert op.order == order
    psi = fock_state(GEN, NEG, 2, 1)
    x1, x2 = np.random.default_rng(5).uniform(-3, 3, (2, 400))
    u = psi.shifted(x1, x2)
    want = op.apply_jet(psi.jet(*u), u)
    orders, jet = [], WaveForm.jet

    def recorded(self, x1, x2, order=2):
        orders.append(order)
        return jet(self, x1, x2, order)
    monkeypatch.setattr(WaveForm, "jet", recorded)
    assert op.apply(psi, x1, x2).tobytes() == want.tobytes()
    assert orders == [order]


def test_apply_jet_below_the_operator_order_raises():
    psi = fock_state(GEN, P, 2, 1)
    x1, x2 = np.random.default_rng(6).uniform(-3, 3, (2, 50))
    u = psi.shifted(x1, x2)
    jets = [psi.jet(*u, order) for order in (0, 1)]
    for name, jet in (("T1", jets[0]), ("H", jets[0]), ("H", jets[1])):
        with pytest.raises(TypeError):
            _op(name, GEN, P).apply_jet(jet, u)


# -- translation-eigenvalue representation ------------------------------------------


def _t1rep(name, chi, n, p, t):
    """``t1rep_op(name, n, p)`` applied to the profile ``chi`` at t."""
    return t1rep_op(name, n, p).apply(chi, t, 0.0)


def test_t1rep_multiplication_vanishes_at_zero():
    f = t1_basis_function(3, P)
    assert _t1rep("T1", f, 0, P, 0.0) == 0.0


def test_t1rep_t2_matches_ladder():
    # i s hbar m w d/dt on chi_0 equals s sqrt(hbar m w / 2) chi_1
    for p in (P, PhysicalParams(2.0, -1.0, 1.5, hbar=0.7)):
        t = np.linspace(-2.5, 2.5, 21) * math.sqrt(p.hbar * p.m * p.omega_c)
        chi0 = t1_basis_function(0, p)
        chi1 = t1_basis_function(1, p)
        lhs = _t1rep("T2", chi0, 0, p, t)
        rhs = p.sign * math.sqrt(p.hbar * p.m * p.omega_c / 2) \
            * chi1.value(t, 0.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))


def test_t1rep_rotation_eigenvalue():
    for p in (P, PhysicalParams(1.0, 1.0, -2.0)):
        t = np.linspace(-2, 2, 17) * math.sqrt(p.hbar * p.m * p.omega_c)
        for n in (0, 2):
            for nplus in (0, 1, 4):
                chi = t1_basis_function(nplus, p)
                lhs = _t1rep("M3", chi, n, p, t)
                rhs = p.sign * p.hbar * (nplus - n) * chi.value(t, 0.0)
                scale = np.max(np.abs(chi.value(t, 0.0))) * p.hbar \
                    * (abs(nplus - n) + 1)
                assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


@pytest.mark.parametrize("p", [PhysicalParams(1.3, 1.0, 0.8, hbar=0.7),
                               PhysicalParams(1.3, -1.0, 0.8, hbar=0.7)],
                         ids=["positive-orientation", "negative-orientation"])
@pytest.mark.parametrize("n", [0, 3])
def test_t1rep_rotation_is_the_oscillator_of_the_translations(p, n):
    # M3 = s/(2 m w) (T1 T1 + T2 T2) - s hbar (n + 1/2) on functions of the
    # translation eigenvalue, coefficient by coefficient
    s, mw = p.sign, p.m * p.omega_c
    t1, t2 = t1rep_op("T1", n, p), t1rep_op("T2", n, p)
    want = (s / (2.0 * mw)) * (t1.compose(t1) + t2.compose(t2)) \
        - DiffOpSpec(c=Poly2.const(s * p.hbar * (n + 0.5)))
    got = t1rep_op("M3", n, p)
    for slot in ("c", "b1", "b2", "a11", "a12", "a22"):
        a, b = getattr(got, slot).terms, getattr(want, slot).terms
        assert a.keys() == b.keys(), slot
        for key in a:
            assert abs(a[key] - b[key]) <= 1e-15 * abs(b[key]), (slot, key)
    assert set(got.c.terms) == {(0, 0), (2, 0)}
    assert set(got.a11.terms) == {(0, 0)}


def test_t1rep_unknown_observable_refused():
    with pytest.raises(ValueError, match="unknown intra-level observable"):
        t1rep_op("L3", 0, P)


def test_hermite_gaussian_derivatives():
    # the profile's jet in u1 = t: f1 against a central difference, f11
    # against the oscillator equation f'' = (y^2 - 2n - 1) f / sigma^2,
    # which is exact; the profile does not depend on u2
    p = PhysicalParams(1.3, -1.0, 1.3, hbar=1.3)
    sig = math.sqrt(p.hbar * p.m * p.omega_c)
    n = 4
    chi = t1_basis_function(n, p)
    t = np.linspace(-3, 3, 25)
    h = 1e-6
    jet = chi.jet(t, 0.0)
    assert jet.f.tobytes() == chi.value(t, 0.0).tobytes()
    fd1 = (chi.value(t + h, 0.0) - chi.value(t - h, 0.0)) / (2 * h)
    assert np.max(np.abs(jet.f1 - fd1)) < 1e-7
    y = t / sig
    rhs = (y * y - 2 * n - 1) * jet.f / sig ** 2
    assert np.max(np.abs(jet.f11 - rhs)) < 1e-12 * np.max(np.abs(rhs))
    for part in (jet.f2, jet.f12, jet.f22):
        assert not np.any(part)


def test_one_hermite_pass_keeps_the_bits_of_separate_calls():
    # the special factor's derivative values take H_n, H_{n-1} and H_{n-2}
    # from one run of the recurrence; each has the bits of its own hermite
    # call, signed zeros included
    x = np.concatenate([np.linspace(-9.0, 9.0, 37), [-0.0, 0.0, 1e-300]])
    arg = Poly2.variable(2)
    for n in range(MAX_QUANTUM_NUMBER + 1):
        f0, f1, f2 = SpecialFactor("hermite", n, arg).chain_values(x)
        want = (hermite(n, x),
                2.0 * n * hermite(n - 1, x) if n >= 1 else 0.0 * x,
                4.0 * n * (n - 1) * hermite(n - 2, x) if n >= 2 else 0.0 * x)
        assert [a.tobytes() for a in (f0, f1, f2)] \
            == [a.tobytes() for a in want], n


# -- validated range of quantum numbers ---------------------------------------


def test_closed_forms_hold_1e_10_at_the_quantum_number_bound():
    # oracle: the same closed forms in 40-digit mpmath arithmetic, unit
    # parameters, symmetric gauge; the error is taken relative to the
    # largest magnitude sampled, so zeros of the function do not count
    mp = pytest.importorskip("mpmath")
    top = MAX_QUANTUM_NUMBER
    rng = np.random.default_rng(5)

    def sup_rel(got, want):
        want = np.array([complex(w) for w in want])
        return np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want))

    with mp.workdps(40):
        for npl, nm in ((top, 0), (0, top), (top, top), (top, top // 2)):
            n, ell = min(npl, nm), abs(npl - nm)
            sgn = 1 if npl >= nm else -1
            r = (math.sqrt(2 * (2 * n + ell + 1)) + 3) \
                * np.sqrt(rng.uniform(0, 1, 60))
            th = rng.uniform(0, 2 * math.pi, 60)
            u1, u2 = r * np.cos(th), r * np.sin(th)
            want = [mp.sqrt(mp.factorial(n) / mp.factorial(n + ell))
                    * (-1) ** n / mp.sqrt(2 * mp.pi)
                    * ((a + 1j * sgn * b) / mp.sqrt(2)) ** ell
                    * mp.exp(-(a * a + b * b) / 4)
                    * mp.laguerre(n, ell, (a * a + b * b) / 2)
                    for a, b in zip(map(mp.mpf, u1), map(mp.mpf, u2))]
            got = fock_state(SYM, P, npl, nm).value(u1, u2)
            assert sup_rel(got, want) < 1e-10, (npl, nm)

        half = math.sqrt(2 * top + 1) + 3
        t = rng.uniform(-half, half, 60)
        coeff = [mp.mpc(0, 1) ** top / mp.sqrt(2 ** top * mp.factorial(top))
                 * mp.pi ** -0.25 * mp.exp(-tt * tt / 2) * mp.hermite(top, tt)
                 for tt in map(mp.mpf, t)]
        assert sup_rel([change_of_basis(top, tt, P) for tt in t], coeff) \
            < 1e-10
        assert sup_rel(t1_basis_function(top, P).value(t, 0.0),
                       [(-1) ** top * c for c in coeff]) < 1e-10
        t1, u1 = 0.7, rng.uniform(-3, 3, 60)
        want = [mp.exp(-(b + t1) ** 2 / 2) * mp.expj(a * b / 2 + t1 * a)
                * mp.hermite(top, b + t1) / mp.sqrt(2 ** top * mp.factorial(top))
                / mp.sqrt(2 * mp.pi) * mp.pi ** -0.25
                for a, b in zip(map(mp.mpf, u1), map(mp.mpf, t - t1))]
        assert sup_rel(t1_state(SYM, P, t1, top).value(u1, t - t1), want) \
            < 1e-10


def test_quantum_numbers_beyond_the_bound_refused():
    top = MAX_QUANTUM_NUMBER + 1
    assert issubclass(QuantumNumberError, ValueError)
    calls = [lambda: fock_state(SYM, P, top, 0),
             lambda: fock_state(GEN, P, 3, top),
             lambda: t1_state(SYM, P, 0.3, top),
             lambda: t1_basis_function(top, P),
             lambda: change_of_basis(top, 0.3, P),
             lambda: t1_fock_overlap(top, 0, 0.3, P),
             lambda: t1_fock_overlap(0, top, 0.3, P),
             # these used to overflow in the normalisation, or to return
             # values 1e8 off without an error
             lambda: change_of_basis(171, 0.0, P),
             lambda: fock_state(SYM, P, 171, 0)]
    for call in calls:
        with pytest.raises(QuantumNumberError, match="validated maximum 40"):
            call()
    # the bound itself is accepted
    fock_state(SYM, P, MAX_QUANTUM_NUMBER, MAX_QUANTUM_NUMBER)
    t1_state(SYM, P, 0.3, MAX_QUANTUM_NUMBER)
