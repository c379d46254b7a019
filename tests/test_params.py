import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landaulab import (DegreeOverflowError, GaugeChoice, OriginMismatchError,
                       PhysicalParams, Poly2, PolyObservable, PolyParseError,
                       format_poly, gauge_delta, parse_poly, vector_potential,
                       vector_potential_polys)
from landaulab.waves import fock_state


def test_derived_identity_scale():
    p = PhysicalParams(1, 1, 1)
    assert (p.omega_c, p.sign, p.magnetic_length) == (1.0, 1, 1.0)


def test_derived_formula_arithmetic():
    p = PhysicalParams(2, -3, 4)
    assert p.omega_c == 6.0
    assert p.sign == -1
    assert p.magnetic_length == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-15)


def test_derived_sign_flip_only_changes_sign():
    p = PhysicalParams(1, 1, -1)
    assert (p.omega_c, p.sign, p.magnetic_length) == (1.0, -1, 1.0)


@pytest.mark.parametrize("kwargs", [
    dict(m=0, q=1, B=1), dict(m=-1, q=1, B=1), dict(m=1, q=0, B=1),
    dict(m=1, q=1, B=0), dict(m=1, q=1, B=1, hbar=0),
])
def test_degenerate_params_rejected(kwargs):
    with pytest.raises(ValueError):
        PhysicalParams(**kwargs)


_NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("name, message", [
    ("m", "mass"), ("q", "charge"), ("B", "magnetic field"), ("hbar", "hbar"),
])
@pytest.mark.parametrize("bad", _NON_FINITE)
def test_non_finite_params_rejected(name, message, bad):
    kwargs = {"m": 1.0, "q": 1.0, "B": 1.0, "hbar": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"^{message} must be .* finite$"):
        PhysicalParams(**kwargs)


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_non_finite_gauge_rejected(bad):
    for alpha, x0 in ((bad, (0.0, 0.0)), (0.0, (bad, 0.0)), (0.0, (0.0, bad))):
        with pytest.raises(ValueError, match="^alpha and x0 must be finite$"):
            GaugeChoice(alpha, x0)


# -- polynomial parsing -----------------------------------------------------


def test_parse_zero():
    assert parse_poly("0").is_zero()


def test_parse_literal():
    p = parse_poly("2*u1 - 0.5*u1*u2^2")
    assert p.terms == {(1, 0): 2.0, (1, 2): -0.5}


def test_parse_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        parse_poly("u1^7")
    # the bound itself, DEFAULT_MAX_DEGREE = 6, is accepted
    assert parse_poly("u1^6").terms == {(6, 0): 1.0}


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as info:
        parse_poly("2*u1 + $")
    assert info.value.position == 7
    with pytest.raises(PolyParseError):
        parse_poly("u1 +")
    with pytest.raises(PolyParseError):
        parse_poly("u1 * 2")     # coefficient must lead a term
    with pytest.raises(PolyParseError):
        parse_poly("u1^-1")


def test_parse_accepts_leading_sign_and_whitespace():
    assert parse_poly(" -0.5*u1  + u2 ").terms == {(1, 0): -0.5, (0, 1): 1.0}


def test_parse_grammar_corners():
    assert parse_poly("2").terms == {(0, 0): 2.0}
    assert parse_poly("u1^0").terms == {(0, 0): 1.0}
    assert parse_poly("1e3*u1").terms == {(1, 0): 1000.0}
    assert parse_poly("u1*u1*u2").terms == {(2, 1): 1.0}
    assert format_poly(parse_poly("u2 - u2")) == "0"
    with pytest.raises(PolyParseError):
        parse_poly("2u1")          # implicit products are not in the grammar
    with pytest.raises(PolyParseError):
        parse_poly("2*3")          # a coefficient cannot follow '*'


@pytest.mark.parametrize("text, position", [
    ("1e400*u1", 0),          # coefficient overflows to inf
    ("u2 + 1e400", 5),
    ("u1^1e400", 3),          # exponent overflows
    ("1e308*u1 + 1e308*u1", 11),   # finite terms, infinite sum
])
def test_parse_rejects_non_finite_numbers(text, position):
    with pytest.raises(PolyParseError) as info:
        parse_poly(text)
    assert info.value.position == position


@pytest.mark.parametrize("terms, text", [
    # real coefficients: the report's gauges[].phi format
    ({(0, 0): -0.25, (1, 0): 2.0, (1, 2): -0.5, (0, 3): 1e-20},
     "-0.25 + 2.0*u1 + 1e-20*u2^3 - 0.5*u1*u2^2"),
    # complex coefficients keep their phase
    ({(0, 0): 0.5, (1, 0): complex(0.0, -2.0), (0, 1): complex(-1.5, 0.25)},
     "0.5 + (-1.5+0.25j)*u2 + (0.0-2.0j)*u1"),
])
def test_format_poly_text(terms, text):
    assert format_poly(Poly2(terms)) == text


def test_wave_function_repr_with_complex_polynomial():
    psi = fock_state(GaugeChoice(0.0), PhysicalParams(1, 1, 1), 1, 0)
    assert ("Poly2('(0.0+0.7071067811865476j)*u2 + 0.7071067811865476*u1')"
            in repr(psi))


def test_format_parse_roundtrip_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(40):
        terms = {}
        for _ in range(rng.integers(0, 7)):
            i, j = int(rng.integers(0, 4)), int(rng.integers(0, 3))
            terms[(i, j)] = float(rng.normal())
        p = Poly2(terms)
        assert parse_poly(format_poly(p)) == p


def test_poly_immutable():
    p = parse_poly("u1")
    with pytest.raises(AttributeError):
        p.terms = {}


# -- ring axioms on random polynomials of both arities ----------------------

_coeffs = st.integers(min_value=-9, max_value=9)


def _polys_of(ring, count):
    """``count`` random polynomials of one ring (Poly2 or PolyObservable)."""
    keys = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    polys = st.dictionaries(keys, _coeffs, max_size=6).map(ring)
    return st.tuples(*[polys] * count)


def _same_ring(count):
    return st.sampled_from([Poly2, PolyObservable]).flatmap(
        lambda ring: _polys_of(ring, count))


@settings(max_examples=80, deadline=None)
@given(_same_ring(3))
def test_ring_distributivity(fgh):
    f, g, h = fgh
    assert (f + g) * h == f * h + g * h


@settings(max_examples=80, deadline=None)
@given(_same_ring(1))
def test_mixed_partials_commute(fs):
    (f,) = fs
    for a in range(1, f.nvars + 1):
        for b in range(a + 1, f.nvars + 1):
            assert f.diff(a).diff(b) == f.diff(b).diff(a)


@settings(max_examples=50, deadline=None)
@given(_same_ring(2))
def test_product_rule(fg):
    f, g = fg
    for a in range(1, f.nvars + 1):
        assert (f * g).diff(a) == f.diff(a) * g + f * g.diff(a)


def test_mixed_rings_refused():
    with pytest.raises(TypeError):
        PolyObservable.const(1.0) + Poly2.variable(1)
    with pytest.raises(TypeError):
        Poly2.variable(1) * PolyObservable.coordinate("p1")
    with pytest.raises(TypeError):
        Poly2.variable(1) - PolyObservable.zero()
    assert Poly2.const(1.0) != PolyObservable.const(1.0)


@pytest.mark.parametrize("ring, axis", [
    (Poly2, 0), (Poly2, 3), (PolyObservable, 0), (PolyObservable, 5),
])
def test_bad_axis_refused(ring, axis):
    with pytest.raises(ValueError):
        ring.const(1.0).diff(axis)


@pytest.mark.parametrize("ring, key", [
    (Poly2, (1, -1)), (Poly2, (1, 0, 0)), (PolyObservable, (1, 0)),
])
def test_bad_exponent_tuple_refused(ring, key):
    with pytest.raises(ValueError):
        ring({key: 1.0})


# -- vector potential and gauge differences ---------------------------------


def test_first_landau_gauge_substitution():
    p = PhysicalParams(1, 1, 1)
    assert vector_potential(GaugeChoice(1.0), p, (0.5, 2.0)) == (-2.0, 0.0)


def test_symmetric_gauge_substitution():
    p = PhysicalParams(1, 1, 1)
    assert vector_potential(GaugeChoice(0.0), p, (1.0, 1.0)) == (-0.5, 0.5)


def _dyadic_poly(rng, deg=6):
    terms = {}
    for _ in range(6):
        i, j = int(rng.integers(0, deg + 1)), int(rng.integers(0, deg + 1))
        if 0 < i + j <= deg:
            terms[(i, j)] = float(rng.integers(-32, 33)) / 64.0
    return Poly2(terms)


def test_curl_identity_exact():
    # d1 A2 - d2 A1 == B at coefficient level: the phi contributions cancel
    # bitwise, the constant is exact for dyadic alpha
    rng = np.random.default_rng(11)
    for b in (1.0, -2.0, 0.75):
        for _ in range(10):
            alpha = float(rng.integers(-8, 9)) / 4.0
            g = GaugeChoice(alpha, (0.0, 0.0), _dyadic_poly(rng))
            a1, a2 = vector_potential_polys(g, b)
            assert a2.diff(1) - a1.diff(2) == Poly2.const(b)


def test_gauge_delta_examples():
    p = PhysicalParams(1, 1, 1)
    g0, g1 = GaugeChoice(0.0), GaugeChoice(1.0)
    assert gauge_delta(g0, g0, p).is_zero()
    assert gauge_delta(g0, g1, p) == Poly2({(1, 1): -0.5})
    g2 = GaugeChoice(0.0, phi=parse_poly("u1^2"))
    assert gauge_delta(g1, g2, p) == Poly2({(1, 1): 0.5, (2, 0): 1.0})


def test_gauge_delta_origin_mismatch():
    p = PhysicalParams(1, 1, 1)
    with pytest.raises(OriginMismatchError):
        gauge_delta(GaugeChoice(0.0, (0, 0)), GaugeChoice(0.0, (1, 0)), p)


def test_gauge_delta_additivity():
    p = PhysicalParams(1, 1, 2.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        gs = [GaugeChoice(float(rng.integers(-8, 9)) / 4.0, (0.0, 0.0),
                          _dyadic_poly(rng)) for _ in range(3)]
        lhs = gauge_delta(gs[0], gs[2], p)
        rhs = gauge_delta(gs[0], gs[1], p) + gauge_delta(gs[1], gs[2], p)
        assert lhs == rhs


def test_gauge_delta_gradient_matches_potential_difference():
    p = PhysicalParams(1, 1, 1)
    rng = np.random.default_rng(9)
    for _ in range(10):
        g1 = GaugeChoice(float(rng.integers(-8, 9)) / 4.0, (0.0, 0.0),
                         _dyadic_poly(rng))
        g2 = GaugeChoice(float(rng.integers(-8, 9)) / 4.0, (0.0, 0.0),
                         _dyadic_poly(rng))
        delta = gauge_delta(g1, g2, p)
        a1_from, a2_from = vector_potential_polys(g1, p.B)
        a1_to, a2_to = vector_potential_polys(g2, p.B)
        assert delta.diff(1) == a1_to - a1_from
        assert delta.diff(2) == a2_to - a2_from


def test_phibar_combines_shear_and_phi():
    g = GaugeChoice(2.0, phi=parse_poly("u2^3"))
    assert g.phibar(1.5) == Poly2({(1, 1): -1.5, (0, 3): 1.0})
