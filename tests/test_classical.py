import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landaulab import (GaugeChoice, PhysicalParams, Poly2, classical,
                       gauge_delta, parse_poly)
from landaulab.classical import (MAX_STEPS, PhaseSpacePoint, PolyObservable,
                                 TrajectoryParams, analytic_trajectory,
                                 canonical_momenta, centre_observable,
                                 energy_observable, integrate,
                                 magnetic_centre, noether_charges, observables,
                                 poisson_bracket, rotation_observable,
                                 translation_observable)
from landaulab.params import CANONICAL_PARTNER, DegreeOverflowError

P = PhysicalParams(1, 1, 1)


def test_zero_energy_orbit_is_static():
    tp = TrajectoryParams(E=0.0, xc=(0.3, -0.7))
    for t in (0.0, 0.4, 7.9):
        s = analytic_trajectory(P, tp, t)
        assert s.x == (0.3, -0.7)
        assert s.p == (0.0, 0.0)


def test_trajectory_direct_substitution():
    s = analytic_trajectory(P, TrajectoryParams(E=0.5), 0.0)
    assert s.x == pytest.approx((1.0, 0.0))
    assert s.p == pytest.approx((0.0, -1.0))


def _fd_residual(p, tp, t, h):
    # five-point stencils at two step sizes, Richardson-extrapolated: the
    # independent oracle for the equation of motion m x'' = qB eps x'
    def stencils(step):
        xs = [np.asarray(analytic_trajectory(p, tp, t + k * step).x)
              for k in (-2, -1, 0, 1, 2)]
        acc = (-xs[0] + 16 * xs[1] - 30 * xs[2] + 16 * xs[3] - xs[4]) \
            / (12 * step * step)
        vel = (xs[0] - 8 * xs[1] + 8 * xs[3] - xs[4]) / (12 * step)
        return acc, vel

    acc_h, vel_h = stencils(h)
    acc_2h, vel_2h = stencils(2 * h)
    acc = (16.0 * acc_h - acc_2h) / 15.0
    vel = (16.0 * vel_h - vel_2h) / 15.0
    return p.m * acc - p.qB * np.array([vel[1], -vel[0]])


def test_analytic_trajectory_satisfies_lorentz_ode():
    rng = np.random.default_rng(4)
    tp = TrajectoryParams(E=0.8, xc=(0.2, 0.1), t0=0.3)
    for p in (P, PhysicalParams(2.0, -1.5, 0.8), PhysicalParams(0.7, -1.1, -1.3)):
        h = 1e-2 / p.omega_c
        scale = abs(p.qB) * math.sqrt(2 * p.m * tp.E) / p.m
        for t in rng.uniform(0, 10, size=10):
            assert np.max(np.abs(_fd_residual(p, tp, t, h))) < 1e-10 * scale


# -- integrators --------------------------------------------------------------


def test_boris_closes_after_one_period():
    tp = TrajectoryParams(E=0.5, xc=(0.4, -0.2))
    s0 = analytic_trajectory(P, tp, 0.0)
    period = 2 * math.pi / P.omega_c
    path = integrate(P, s0, period / 1000, 1000, method="boris")
    end = path[-1]
    gap = math.hypot(end[0] - s0.x[0], end[1] - s0.x[1])
    assert gap < 1e-6 * P.magnetic_length


def test_boris_preserves_momentum_norm():
    s0 = PhaseSpacePoint((0.0, 0.0), (0.7, -0.3))
    n0 = math.hypot(*s0.p)
    for s in integrate(P, s0, 0.05, 4000, method="boris"):
        assert abs(math.hypot(*s[2:]) - n0) < 1e-13


def test_zero_momentum_is_fixed_point():
    s0 = PhaseSpacePoint((1.0, 2.0), (0.0, 0.0))
    for method in ("boris", "rk4"):
        for s in integrate(P, s0, 0.1, 50, method=method):
            assert tuple(s[:2]) == (1.0, 2.0)
            assert tuple(s[2:]) == (0.0, 0.0)


def test_rk4_energy_drift_small():
    tp = TrajectoryParams(E=0.5)
    s0 = analytic_trajectory(P, tp, 0.0)
    period = 2 * math.pi / P.omega_c
    path = integrate(P, s0, period / 1000, 10000, method="rk4")
    e = [0.5 * (s[2] ** 2 + s[3] ** 2) for s in path]
    assert max(abs(v - e[0]) for v in e) / e[0] < 1e-8


def test_boris_tracks_analytic_solution():
    tp = TrajectoryParams(E=0.35, xc=(0.3, 0.6), t0=0.2)
    s0 = analytic_trajectory(P, tp, 0.0)
    dt = 2 * math.pi / P.omega_c / 1000
    path = integrate(P, s0, dt, 500, method="boris")
    ref = analytic_trajectory(P, tp, 500 * dt)
    assert np.allclose(path[-1, :2], ref.x, atol=1e-10)
    assert np.allclose(path[-1, 2:], ref.p, atol=1e-10)


def test_integrate_validates_input():
    s0 = PhaseSpacePoint((0, 0), (1, 0))
    with pytest.raises(ValueError):
        integrate(P, s0, -0.1, 5)
    with pytest.raises(ValueError):
        integrate(P, s0, 0.1, 0)
    with pytest.raises(ValueError):
        integrate(P, s0, 0.1, 5, method="verlet")


@pytest.mark.parametrize("method", ["boris", "rk4"])
def test_integrate_refuses_steps_above_the_bound(monkeypatch, method):
    # one step past MAX_STEPS is refused before any state is built
    def unreachable(*args):
        raise AssertionError("orbit built")
    monkeypatch.setattr(classical, "_rotation_orbit", unreachable)
    monkeypatch.setattr(classical, "_rk4_orbit", unreachable)
    s0 = PhaseSpacePoint((0, 0), (1, 0))
    with pytest.raises(ValueError, match=f"between 1 and {MAX_STEPS} steps"):
        integrate(P, s0, 0.1, MAX_STEPS + 1, method=method)


# reference steppers: the integrator's arithmetic written one step at a time,
# with a PhaseSpacePoint per state; integrate() must reproduce them bit for
# bit


def _ref_rotation_step(p, state, dt):
    a = (p.qB / p.m) * dt
    tau = math.tan(0.5 * a)
    p1, p2 = state.p
    f = 2.0 * tau / (1.0 + tau * tau)
    q1 = p1 + tau * p2
    q2 = p2 - tau * p1
    p1n = p1 + f * q2
    p2n = p2 - f * q1
    if a != 0.0:
        c = (1.0 - math.cos(a)) / a, math.sin(a) / a
        dx1 = (dt / p.m) * (c[1] * p1 + c[0] * p2)
        dx2 = (dt / p.m) * (-c[0] * p1 + c[1] * p2)
    else:
        dx1, dx2 = (dt / p.m) * p1, (dt / p.m) * p2
    x1, x2 = state.x
    return PhaseSpacePoint((x1 + dx1, x2 + dx2), (p1n, p2n))


def _ref_lorentz_rhs(p, x1, x2, p1, p2):
    k = p.qB / p.m
    return p1 / p.m, p2 / p.m, k * p2, -k * p1


def _ref_rk4_step(p, state, dt):
    y = (*state.x, *state.p)
    k1 = _ref_lorentz_rhs(p, *y)
    k2 = _ref_lorentz_rhs(p, *(y[i] + 0.5 * dt * k1[i] for i in range(4)))
    k3 = _ref_lorentz_rhs(p, *(y[i] + 0.5 * dt * k2[i] for i in range(4)))
    k4 = _ref_lorentz_rhs(p, *(y[i] + dt * k3[i] for i in range(4)))
    out = tuple(y[i] + dt / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                for i in range(4))
    return PhaseSpacePoint(out[:2], out[2:])


_REF_STEP = {"boris": _ref_rotation_step, "rk4": _ref_rk4_step}
_finite = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(sorted(_REF_STEP)),
       m=st.floats(0.3, 3.0), q=st.sampled_from([-1.7, -1.0, 0.6, 1.0]),
       bfield=st.floats(0.2, 2.5), hbar=st.floats(0.4, 2.0),
       dt=st.floats(1e-6, 2.0), n=st.integers(1, 60),
       state=st.tuples(_finite, _finite, _finite, _finite))
def test_integrate_matches_reference_stepper_bitwise(method, m, q, bfield,
                                                     hbar, dt, n, state):
    p = PhysicalParams(m, q, bfield, hbar=hbar)
    s = PhaseSpacePoint(state[:2], state[2:])
    ref = [[*s.x, *s.p]]
    for _ in range(n):
        s = _REF_STEP[method](p, s, dt)
        ref.append([*s.x, *s.p])
    path = integrate(p, PhaseSpacePoint(state[:2], state[2:]), dt, n, method)
    assert path.shape == (n + 1, 4) and path.dtype == np.float64
    assert path.tolist() == ref
    # signed zeros included
    assert np.signbit(path).tolist() == np.signbit(np.array(ref)).tolist()


def test_integrate_zero_rotation_angle_branch():
    # qB dt / m underflows to zero: the drift is a straight line.  The
    # cyclotron frequency is the smallest subnormals, not zero, which
    # PhysicalParams refuses
    p = PhysicalParams(1e10, 1e-160, 1e-153, hbar=1e-20)
    assert p.omega_c != 0.0 and (p.qB / p.m) * 0.1 == 0.0
    s0 = PhaseSpacePoint((0.5, -0.25), (0.3, -0.7))
    for method in ("boris", "rk4"):
        s, ref = s0, [[*s0.x, *s0.p]]
        for _ in range(5):
            s = _REF_STEP[method](p, s, 0.1)
            ref.append([*s.x, *s.p])
        assert integrate(p, s0, 0.1, 5, method).tolist() == ref


@pytest.mark.parametrize("method", ["boris", "rk4"])
def test_integrate_overflow_raises_finiteness_error(method):
    # a weak field: the orbit radius exceeds the float range, so the
    # position overflows to inf on the first step
    p = PhysicalParams(1.0, 1e-150, 1e-150)
    s0 = PhaseSpacePoint((1e307, 0.0), (1e307, 1e307))
    message = "phase-space components must be finite"
    with pytest.raises(ValueError, match=message):
        _REF_STEP[method](p, s0, 100.0)
    with pytest.raises(ValueError, match=message):
        integrate(p, s0, 100.0, 20, method=method)


def test_integrate_rejects_non_finite_step():
    s0 = PhaseSpacePoint((0, 0), (1, 0))
    for dt in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate(P, s0, dt, 5)


# -- conserved charges --------------------------------------------------------


def test_charges_direct_substitution():
    c = noether_charges(P, (0.0, 0.0), PhaseSpacePoint((1.0, 0.0), (0.0, 1.0)))
    assert c == (0.5, 0.0, 2.0, 1.5)
    assert c.T1 ** 2 + c.T2 ** 2 == 2 * P.m * c.E + 2 * P.qB * c.M3


def test_charges_vanish_at_rest_on_origin():
    c = noether_charges(P, (0.5, -0.5), PhaseSpacePoint((0.5, -0.5), (0.0, 0.0)))
    assert c == (0.0, 0.0, 0.0, 0.0)


def test_charges_constant_along_analytic_orbit():
    p = PhysicalParams(1.7, -0.6, 2.1, hbar=0.5)
    tp = TrajectoryParams(E=1.2, xc=(-0.4, 0.9), t0=-0.6)
    x0 = (0.25, -1.0)
    ref = noether_charges(p, x0, analytic_trajectory(p, tp, 0.0))
    for t in np.linspace(0.0, 4 * 2 * math.pi / p.omega_c, 20):
        c = noether_charges(p, x0, analytic_trajectory(p, tp, t))
        assert np.allclose(c, ref, rtol=0, atol=1e-12)


def test_charges_on_a_path_equal_pointwise_charges_bitwise():
    p = PhysicalParams(1.7, -0.6, 2.1, hbar=0.5)
    x0 = (0.25, -1.0)
    s0 = analytic_trajectory(p, TrajectoryParams(E=1.2, xc=(-0.4, 0.9)), 0.0)
    path = integrate(p, s0, 0.01, 300, method="rk4")
    charges = noether_charges(p, x0, path)
    assert all(c.shape == (301,) for c in charges)
    pointwise = [noether_charges(p, x0, PhaseSpacePoint(s[:2], s[2:]))
                 for s in path.tolist()]
    assert np.column_stack(charges).tolist() == [list(c) for c in pointwise]


def test_magnetic_centre_examples():
    assert magnetic_centre(P, (0.7, 0.2), (0.0, 0.0)) == (0.7, 0.2)
    assert magnetic_centre(P, (0.0, 0.0), (0.0, 2.0)) == (2.0, 0.0)


def _fit_circle_centre(points):
    # Kasa least-squares circle fit: the independent geometric oracle
    x = np.array([pt[0] for pt in points])
    y = np.array([pt[1] for pt in points])
    a = np.column_stack([2 * x, 2 * y, np.ones_like(x)])
    sol, *_ = np.linalg.lstsq(a, x * x + y * y, rcond=None)
    return sol[0], sol[1]


def test_magnetic_centre_matches_fitted_orbit_centre():
    p = PhysicalParams(1.3, 0.8, -1.9)
    tp = TrajectoryParams(E=0.9, xc=(0.33, -0.41), t0=0.0)
    x0 = (1.0, 1.0)
    pts = [analytic_trajectory(p, tp, t).x
           for t in np.linspace(0, 2 * math.pi / p.omega_c, 40)]
    fitted = _fit_circle_centre(pts)
    charges = noether_charges(p, x0, analytic_trajectory(p, tp, 0.17))
    derived = magnetic_centre(p, x0, (charges.T1, charges.T2))
    assert np.allclose(derived, fitted, atol=1e-8)
    assert np.allclose(derived, tp.xc, atol=1e-12)


def test_charges_conserved_along_boris_path():
    tp = TrajectoryParams(E=0.5, xc=(0.5, -0.25))
    s0 = analytic_trajectory(P, tp, 0.0)
    dt = 2 * math.pi / P.omega_c / 1000
    ref = noether_charges(P, (0, 0), s0)
    for s in integrate(P, s0, dt, 10000, method="boris")[::100]:
        c = noether_charges(P, (0, 0), PhaseSpacePoint(s[:2], s[2:]))
        assert np.allclose(c, ref, rtol=0, atol=1e-12)


# -- Poisson-bracket calculus -------------------------------------------------

U1 = PolyObservable.coordinate("u1")
U2 = PolyObservable.coordinate("u2")
P1 = PolyObservable.coordinate("p1")
P2 = PolyObservable.coordinate("p2")


def test_canonical_pair_bracket():
    assert poisson_bracket(U1, P1, P) == PolyObservable.const(1.0)
    assert poisson_bracket(U1, P2, P).is_zero()


def test_momentum_momentum_bracket_is_field():
    p = PhysicalParams(1, 2.0, -0.75)
    assert poisson_bracket(P1, P2, p) == PolyObservable.const(p.qB)


def test_translation_brackets():
    p = PhysicalParams(1, 1, 2.0)
    t1 = translation_observable(1, p)
    t2 = translation_observable(2, p)
    h = energy_observable(p)
    assert poisson_bracket(t1, t2, p) == PolyObservable.const(-p.qB)
    assert poisson_bracket(t1, h, p).is_zero()
    assert poisson_bracket(t2, h, p).is_zero()
    assert poisson_bracket(rotation_observable(p), h, p).is_zero()


def test_translations_generate_shifts():
    a = (0.75, -1.25)
    gen = a[0] * translation_observable(1, P) + a[1] * translation_observable(2, P)
    assert poisson_bracket(U1, gen, P) == PolyObservable.const(a[0])
    assert poisson_bracket(U2, gen, P) == PolyObservable.const(a[1])
    assert poisson_bracket(P1, gen, P).is_zero()
    assert poisson_bracket(P2, gen, P).is_zero()


def test_rotation_generates_infinitesimal_rotation():
    theta = 0.5
    gen = theta * rotation_observable(P)
    assert poisson_bracket(U1, gen, P) == -theta * U2
    assert poisson_bracket(U2, gen, P) == theta * U1
    assert poisson_bracket(P1, gen, P) == -theta * P2
    assert poisson_bracket(P2, gen, P) == theta * P1


def test_centre_brackets_noncommutative():
    p = PhysicalParams(1, 1, 4.0)
    xc1 = centre_observable(1, p)
    xc2 = centre_observable(2, p)
    assert poisson_bracket(xc1, xc2, p) == PolyObservable.const(-1.0 / p.qB)


def test_translation_rotation_bracket():
    p = PhysicalParams(1, -1, 2.0)
    t1 = translation_observable(1, p)
    t2 = translation_observable(2, p)
    m3 = rotation_observable(p)
    assert poisson_bracket(t1, m3, p) == -1.0 * t2
    assert poisson_bracket(t2, m3, p) == t1


def test_charge_relation_is_coefficient_level_zero():
    for p in (P, PhysicalParams(2.0, -1.5, 0.5)):
        t1 = translation_observable(1, p)
        t2 = translation_observable(2, p)
        rel = (t1 * t1 + t2 * t2 - 2.0 * p.m * energy_observable(p)
               - 2.0 * p.qB * rotation_observable(p))
        assert rel.is_zero()


def test_bracket_degree_bound():
    f = U1 * U1 * U1 * U1 * P2
    g = U2 * U2 * U2 * P1 * P1 * P1 * P1
    with pytest.raises(DegreeOverflowError):
        poisson_bracket(f, g, P, max_degree=8)
    assert poisson_bracket(f, g, P, max_degree=16).degree == 10


# -- canonical momenta --------------------------------------------------------


def test_canonical_momenta_at_origin_symmetric_gauge():
    g = GaugeChoice(0.0, (0.4, -0.1))
    s = PhaseSpacePoint((0.4, -0.1), (0.3, 0.9))
    assert canonical_momenta(g, P, s) == (0.3, 0.9)


def test_canonical_momenta_direct_substitution():
    g = GaugeChoice(1.0)
    s = PhaseSpacePoint((0.0, 1.0), (1.0, 0.0))
    assert canonical_momenta(g, P, s) == (0.0, 0.0)


def test_canonical_momenta_gauge_shift_is_delta_gradient():
    rng = np.random.default_rng(21)
    g1 = GaugeChoice(0.25, (0.1, 0.2), parse_poly("0.5*u1^2*u2"))
    g2 = GaugeChoice(-0.75, (0.1, 0.2), parse_poly("0.25*u2^3 - u1"))
    delta = gauge_delta(g1, g2, P)
    for _ in range(10):
        x = tuple(rng.uniform(-2, 2, size=2))
        s = PhaseSpacePoint(x, tuple(rng.uniform(-1, 1, size=2)))
        pi1 = canonical_momenta(g1, P, s)
        pi2 = canonical_momenta(g2, P, s)
        u = (x[0] - 0.1, x[1] - 0.2)
        grad = (P.q * delta.diff(1)(*u), P.q * delta.diff(2)(*u))
        assert np.allclose((pi2[0] - pi1[0], pi2[1] - pi1[1]), grad,
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [P, PhysicalParams(1.3, -0.7, 1.9, hbar=1.4)])
@pytest.mark.parametrize("g", [
    GaugeChoice(0.37, (0.3, -0.2),
                parse_poly("0.05*u1^2*u2 - 0.1*u1 + 0.02*u2^3")),
    GaugeChoice(-1.0), GaugeChoice(2.0, (1.0, 0.5), parse_poly("u1*u2"))])
def test_canonical_extras_are_the_gauge_terms(p, g):
    # a canonical observable of the table minus its gauge-invariant partner
    # holds no momentum: it is the closed-form gauge term, to rounding
    u1, u2 = Poly2.variable(1), Poly2.variable(2)
    qb, (d1, d2) = p.qB, (p.q * g.phi.diff(1), p.q * g.phi.diff(2))
    want = {"pi1": (-0.5 * (g.alpha - 1.0) * qb) * u2 + d1,
            "pi2": (-0.5 * (g.alpha + 1.0) * qb) * u1 + d2,
            "L3c": (-0.5 * g.alpha * qb) * (u1 * u1 - u2 * u2)
            + u1 * d2 - u2 * d1}
    f = observables(p, g)
    for name, partner in CANONICAL_PARTNER.items():
        extra = f[name] - f[partner]
        assert not any(any(key[2:]) for key in extra.terms), name
        gap = Poly2({k[:2]: c for k, c in extra.terms.items()}) - want[name]
        assert all(abs(c) <= 4e-16 * max(1.0, abs(qb))
                   for c in gap.terms.values()), name


def test_canonical_coordinates_have_canonical_brackets():
    # {u_i, pi_j} = delta_ij and {pi_i, pi_j} = 0 exactly, for dyadic gauges
    rng = np.random.default_rng(13)
    for _ in range(5):
        terms = {}
        for _ in range(5):
            i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            if 0 < i + j <= 4:
                terms[(i, j)] = float(rng.integers(-16, 17)) / 32.0
        g = GaugeChoice(float(rng.integers(-4, 5)) / 2.0, (0, 0), Poly2(terms))
        pi1, pi2 = (observables(P, g)[name] for name in ("pi1", "pi2"))
        assert poisson_bracket(U1, pi1, P) == PolyObservable.const(1.0)
        assert poisson_bracket(U2, pi1, P).is_zero()
        assert poisson_bracket(U1, pi2, P).is_zero()
        assert poisson_bracket(pi1, pi2, P).is_zero()
