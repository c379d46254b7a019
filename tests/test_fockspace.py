import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from landaulab import GaugeChoice, PhysicalParams, Poly2, parse_poly
from landaulab.campaigns import (_angular_states, _canonical_route,
                                 _neighbour_pairs, run_verify_algebra)
from landaulab.fockspace import (FockBasis, TruncationError,
                                 build_observable, change_of_basis,
                                 gauge_variant_matrix,
                                 ladder_ops, poly_operator,
                                 position_monomials, t1_fock_overlap,
                                 angular_element, OBSERVABLE_NAMES)
from landaulab.params import CANONICAL_PARTNER, canonical_extra

P = PhysicalParams(1, 1, 1)
X0 = (0.0, 0.0)


def _basis():
    return FockBasis(10)


def test_basis_indexing_bijective():
    b = FockBasis(5)
    seen = set()
    for nplus in range(6):
        for nminus in range(6):
            seen.add(b.index(nplus, nminus))
    assert seen == set(range(36))
    assert b.labels()[b.index(3, 2)] == (3, 2)
    with pytest.raises(IndexError):
        b.index(6, 0)


def test_ladder_action_on_states():
    b = _basis()
    ap, apd, am, amd = ladder_ops(b)
    vac = np.zeros(b.dim)
    vac[b.index(0, 0)] = 1.0
    raised = apd.matrix @ vac
    assert raised[b.index(1, 0)] == 1.0
    assert np.count_nonzero(raised) == 1
    state = np.zeros(b.dim)
    state[b.index(0, 3)] = 1.0
    lowered = am.matrix @ state
    assert lowered[b.index(0, 2)] == pytest.approx(math.sqrt(3), rel=1e-15)
    assert np.count_nonzero(lowered) == 1


def test_ladder_commutator_on_interior():
    b = _basis()
    _, _, am, amd = ladder_ops(b)
    comm = am @ amd - amd @ am
    idx = b.interior_indices(1)
    dev = np.max(np.abs((comm.matrix - np.eye(b.dim))[np.ix_(idx, idx)]))
    assert dev < 5e-15


def test_excursion_metadata():
    b = _basis()
    ap, apd, am, amd = ladder_ops(b)
    assert ap.excursion == apd.excursion == 1
    assert (ap @ am).excursion == 2
    assert build_observable("H", P, X0, b).excursion == 0
    assert poly_operator(parse_poly("u1^2*u2"), P, X0, b).excursion == 3


def test_every_observable_exactly_hermitian():
    b = _basis()
    for name in OBSERVABLE_NAMES:
        op = build_observable(name, P, (0.3, -0.2), b)
        assert op.is_hermitian_exact(), name


def test_shared_ladders_give_identical_observables():
    b = _basis()
    p = PhysicalParams(1.3, -0.8, 1.1, hbar=0.7)
    ladders = ladder_ops(b)
    for name in OBSERVABLE_NAMES:
        shared = build_observable(name, p, (0.3, -0.2), b, ladders)
        own = build_observable(name, p, (0.3, -0.2), b)
        assert np.array_equal(shared.matrix, own.matrix), name
        assert shared.excursion == own.excursion


@pytest.mark.parametrize("nmax", [6, 16])
@pytest.mark.parametrize("p, x0", [
    (PhysicalParams(1, 1, 1), (0.0, 0.0)),
    (PhysicalParams(1.3, -0.8, 1.1, hbar=0.7), (0.3, -0.2)),
    (PhysicalParams(0.6, 1.9, 0.7, hbar=1.6), (-0.9, 0.4)),
])
def test_diagonal_products_are_exact_broadcasts(nmax, p, x0):
    # the commutator suite multiplies by H and M3 as broadcasts of their
    # diagonals; every entry has one nonzero term, so the broadcast rounds
    # exactly as the dense product does
    b = FockBasis(nmax)
    ops = {name: build_observable(name, p, x0, b) for name in OBSERVABLE_NAMES}
    for dname in ("H", "M3"):
        dense = ops[dname].matrix
        d = np.diag(dense)
        assert np.array_equal(dense, np.diag(d))
        for name, op in ops.items():
            a = op.matrix
            assert np.array_equal(a * d[None, :], a @ dense), (name, dname)
            assert np.array_equal(d[:, None] * a, dense @ a), (dname, name)


def test_unknown_observable_rejected():
    with pytest.raises(ValueError):
        build_observable("Q", P, X0, _basis())


def test_hamiltonian_diagonal_bitwise():
    b = _basis()
    h = build_observable("H", P, X0, b)
    for nplus in range(11):
        for nminus in range(11):
            assert h.element((nplus, nminus), (nplus, nminus)) == nminus + 0.5


def test_vacuum_angular_momentum_zero():
    m3 = build_observable("M3", P, X0, _basis())
    assert m3.element((0, 0), (0, 0)) == 0


def test_translation_element_first_excited():
    t1 = build_observable("T1", P, X0, _basis())
    assert t1.element((1, 0), (0, 0)) == pytest.approx(1j * math.sqrt(0.5),
                                                       abs=1e-15)


def test_translation_consistent_with_velocity_and_position():
    # T1 = p1 - qB (x2 - x0_2) as matrices
    b = _basis()
    p = PhysicalParams(1.4, -0.8, 1.7, hbar=0.6)
    t1 = build_observable("T1", p, (0.1, 0.9), b)
    p1 = build_observable("p1", p, (0.1, 0.9), b)
    x2 = build_observable("x2", p, (0.1, 0.9), b)
    rhs = p1.matrix - p.qB * (x2.matrix - 0.9 * np.eye(b.dim))
    assert np.allclose(t1.matrix, rhs, rtol=0, atol=1e-14)


def test_commutator_checks():
    # [T1,T2] = -i hbar s m omega_c, [xc_i,p_j] = 0 and [T1,M3] = -i hbar T2
    # on the interior, at reversed orientation and off-origin x0
    p = PhysicalParams(1.5, -2.0, 0.75, hbar=2.0)
    rep = run_verify_algebra(p, nmax=12, margin=3, x0=(0.2, -0.4))
    by_id = {c.id: c for c in rep.checks}
    for cid in ("comm:[T1,T2]", "comm:[xc1,p1]", "comm:[xc1,p2]",
                "comm:[xc2,p1]", "comm:[xc2,p2]", "comm:[T1,M3]"):
        assert by_id[cid].tolerance == 1e-12
        assert by_id[cid].passed, by_id[cid]


def _commutator_reference(p, nmax, margin, x0):
    """Every comm:* deviation of verify-algebra, each commutator formed from
    the full dense products, subtracted, and then restricted to the
    interior."""
    b = FockBasis(nmax)
    m = {name: build_observable(name, p, x0, b).matrix
         for name in OBSERVABLE_NAMES}
    eye = np.eye(b.dim, dtype=complex)
    m["u1"] = m["x1"] - x0[0] * eye
    m["u2"] = m["x2"] - x0[1] * eye
    idx = b.interior_indices(margin)
    inner = np.ix_(idx, idx)
    eye_in = np.eye(len(idx), dtype=complex)
    hb, s, w, qb = p.hbar, p.sign, p.omega_c, p.qB

    def part(name):
        return m[name][inner]

    expected = {
        "[x1,p1]": 1j * hb * eye_in, "[x2,p2]": 1j * hb * eye_in,
        "[p1,p2]": 1j * hb * qb * eye_in,
        "[T1,T2]": -1j * hb * s * p.m * w * eye_in,
        "[T1,M3]": -1j * hb * part("T2"), "[T2,M3]": 1j * hb * part("T1"),
        "[xc1,xc2]": (-1j * hb / qb) * eye_in,
        "[p1,H]": 1j * s * hb * w * part("p2"),
        "[p2,H]": -1j * s * hb * w * part("p1"),
        "[T1,L3]": -1j * hb * part("p2"), "[T2,L3]": 1j * hb * part("p1"),
        "[p1,L3]": 1j * hb * part("T2") - 2j * hb * part("p2"),
        "[p2,L3]": -1j * hb * part("T1") + 2j * hb * part("p1"),
        "[x1,T1]": 1j * hb * eye_in, "[x2,T2]": 1j * hb * eye_in,
        "[u1,M3]": -1j * hb * part("u2"), "[u2,M3]": 1j * hb * part("u1"),
        "[p1,M3]": -1j * hb * part("p2"), "[p2,M3]": 1j * hb * part("p1"),
        "[L3,H]": -0.5j * s * hb * w * (
            m["u1"] @ m["p1"] + m["p1"] @ m["u1"]
            + m["u2"] @ m["p2"] + m["p2"] @ m["u2"])[inner],
    }
    zero = ("[x1,p2]", "[x2,p1]", "[T1,H]", "[T2,H]", "[M3,H]", "[xc1,H]",
            "[xc2,H]", "[xc1,p1]", "[xc1,p2]", "[xc2,p1]", "[xc2,p2]",
            "[L3,M3]", "[x1,T2]", "[p1,T1]", "[p2,T2]")
    expected.update(dict.fromkeys(zero, 0.0))
    dev = {}
    for pair, want in expected.items():
        a, c = pair[1:-1].split(",")
        comm = m[a] @ m[c] - m[c] @ m[a]
        dev[f"comm:{pair}"] = float(np.max(np.abs(comm[inner] - want)))
    return dev


@pytest.mark.parametrize("nmax", [8, 12])
@pytest.mark.parametrize("margin", range(5))
@pytest.mark.parametrize("p", [PhysicalParams(1.3, -1.0, 0.7, hbar=0.6),
                               PhysicalParams(0.8, 1.2, 1.5, hbar=1.7)],
                         ids=["qB<0", "qB>0"])
def test_commutators_on_interior_block_match_full_products(p, margin, nmax):
    # verify-algebra takes the interior of each product before subtracting
    # and broadcasts the diagonal H and M3 on the interior block alone; both
    # are elementwise, so every deviation keeps the bits of the full route
    x0 = (0.3, -0.2)
    rep = run_verify_algebra(p, nmax=nmax, margin=margin, x0=x0)
    got = {c.id: c.deviation for c in rep.checks if c.id.startswith("comm:")}
    want = _commutator_reference(p, nmax, margin, x0)
    assert got.keys() == want.keys()
    for cid, dev in want.items():
        assert struct.pack("<d", got[cid]) == struct.pack("<d", dev), cid


def test_quantum_charge_relation_margin_two():
    b = FockBasis(12)
    p = PhysicalParams(2.0, 1.5, -0.5, hbar=0.7)
    t1 = build_observable("T1", p, X0, b)
    t2 = build_observable("T2", p, X0, b)
    h = build_observable("H", p, X0, b)
    m3 = build_observable("M3", p, X0, b)
    rel = (t1.matrix @ t1.matrix + t2.matrix @ t2.matrix
           - 2 * p.m * h.matrix - 2 * p.qB * m3.matrix)
    idx = b.interior_indices(2)
    assert np.max(np.abs(rel[np.ix_(idx, idx)])) < 1e-12


def test_interior_project_shape():
    b = FockBasis(6)
    assert len(b.interior_indices(2)) == 25
    with pytest.raises(TruncationError):
        b.interior_indices(7)


@pytest.mark.parametrize("nmax", [8, 16])
def test_interior_block_equals_index_gather(nmax):
    b = FockBasis(nmax)
    rng = np.random.default_rng(nmax)
    m = rng.normal(size=(b.dim, b.dim)) + 1j * rng.normal(size=(b.dim, b.dim))
    for margin in range(nmax + 1):
        idx = b.interior_indices(margin)
        for src in (m, m.T):
            block = b.interior_block(src, margin)
            gathered = src[np.ix_(idx, idx)]
            assert block.shape == gathered.shape
            assert block.tobytes() == gathered.tobytes()
    for margin in (-1, nmax + 1):
        with pytest.raises(TruncationError):
            b.interior_block(m, margin)


# -- polynomial position operators -------------------------------------------


def test_poly_operator_constant_is_identity():
    b = _basis()
    op = poly_operator(Poly2.const(1.0), P, X0, b)
    assert np.array_equal(op.matrix, np.eye(b.dim, dtype=complex))


def test_poly_operator_linear_vacuum_element():
    op = poly_operator(parse_poly("u1"), P, X0, _basis())
    assert op.element((0, 0), (0, 0)) == 0


def test_poly_operator_vacuum_radius_squared():
    # oracle: 1-D Gauss-Hermite quadrature of the vacuum density times u^2,
    # computed directly from numpy nodes, independent of the operator route
    lam = P.magnetic_length
    t, w = hermgauss(60)
    # vacuum density per axis: |psi|^2 ~ exp(-u^2 / (2 lam^2)) normalised
    u = t * lam * math.sqrt(2.0)
    dens_w = w / math.sqrt(math.pi)
    mean_u2 = float(np.sum(dens_w * u * u))     # one axis
    oracle = 2.0 * mean_u2
    op = poly_operator(parse_poly("u1^2 + u2^2"), P, X0, _basis())
    val = op.element((0, 0), (0, 0))
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val == pytest.approx(2.0 * lam * lam, rel=1e-12)


def test_poly_operator_degree_guard():
    with pytest.raises(TruncationError):
        poly_operator(parse_poly("u1^4"), P, X0, FockBasis(3))


def test_poly_operator_commutes_positions():
    # u1 u2 vs u2 u1 ordering agrees on the interior
    b = _basis()
    f12 = poly_operator(Poly2({(1, 1): 1.0}), P, X0, b)
    x1 = poly_operator(parse_poly("u1"), P, X0, b)
    x2 = poly_operator(parse_poly("u2"), P, X0, b)
    alt = x2 @ x1
    idx = b.interior_indices(2)
    dev = np.max(np.abs((f12.matrix - alt.matrix)[np.ix_(idx, idx)]))
    assert dev < 1e-14


# -- closed-form matrix elements ----------------------------------------------


def test_angular_elements_examples():
    assert angular_element("M3", 3, 2, 3, 2, P).value == 3.0
    assert angular_element("p1", 0, 0, 0, 0, P).value == 0
    assert angular_element("L3", 0, 1, 0, 1, P).value == -3.0
    assert angular_element("T1", 1, 0, 0, 0, P).value == pytest.approx(
        1j * math.sqrt(0.5), abs=1e-15)


def test_angular_elements_match_matrices():
    b = FockBasis(12)
    p = PhysicalParams(1.2, -0.9, 1.4, hbar=0.8)
    for name in ("H", "T1", "T2", "M3", "p1", "p2", "L3"):
        op = build_observable(name, p, X0, b)
        for l1 in range(-3, 4):
            for n1 in range(max(0, -l1), 4):
                for l2 in range(-3, 4):
                    for n2 in range(max(0, -l2), 4):
                        closed = angular_element(name, l1, n1, l2, n2, p).value
                        entry = op.element((n1 + l1, n1), (n2 + l2, n2))
                        assert abs(closed - entry) < 1e-13, (name, l1, n1, l2, n2)


def _angular_element_scalar(name, l1, n1, l2, n2, p):
    """The scalar closed form the array form replaced, kept as the bit-level
    reference: one label set at a time, in Python floats."""
    if l1 < -n1 or l2 < -n2 or n1 < 0 or n2 < 0:
        raise ValueError("labels must satisfy n >= 0 and l >= -n")
    s = p.sign
    hb = p.hbar
    c = math.sqrt(hb * p.m * p.omega_c / 2.0)

    def d(a, bb):
        return 1.0 if a == bb else 0.0

    def up(cond, arg):
        return math.sqrt(arg) if cond else 0.0

    if name == "H":
        return hb * p.omega_c * (n1 + 0.5) * d(l1, l2) * d(n1, n2), False
    if name == "T1":
        return 1j * c * (up(l1 == l2 + 1, n1 + l1)
                         - up(l2 == l1 + 1, n1 + l2)) * d(n1, n2), False
    if name == "T2":
        return s * c * (up(l1 == l2 + 1, n1 + l1)
                        + up(l2 == l1 + 1, n1 + l2)) * d(n1, n2), False
    if name == "M3":
        return s * hb * l1 * d(l1, l2) * d(n1, n2), False
    if name == "p1":
        return 1j * c * (up(l2 == l1 + 1 and n1 == n2 + 1, n1)
                         - up(l1 == l2 + 1 and n2 == n1 + 1, n2)), False
    if name == "p2":
        return -s * c * (up(l2 == l1 + 1 and n1 == n2 + 1, n1)
                         + up(l1 == l2 + 1 and n2 == n1 + 1, n2)), False
    assert name == "L3"
    if n1 == n2:
        return -s * hb * (2 * n1 + 1) * d(l1, l2), False
    v = 0.0
    if l1 == l2:
        if n1 == n2 + 1:
            v = -s * hb * math.sqrt((n2 + l2 + 1) * (n2 + 1))
        elif n2 == n1 + 1:
            v = -s * hb * math.sqrt((n2 + l2) * n2)
    return complex(v), True


def _bits(z):
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


_LABEL = st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.integers(-n, 12), st.just(n)))
_FINITE = {"allow_nan": False, "allow_infinity": False}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(("H", "T1", "T2", "M3", "p1", "p2", "L3")),
       top=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       extra=st.lists(_LABEL, max_size=6),
       m=st.floats(0.2, 5.0, **_FINITE), q=st.floats(0.2, 3.0, **_FINITE),
       b=st.floats(0.2, 3.0, **_FINITE), hbar=st.floats(0.1, 4.0, **_FINITE),
       flip=st.booleans())
def test_array_angular_element_matches_scalar_code_bitwise(
        name, top, extra, m, q, b, hbar, flip):
    # every pair of a dense label block plus scattered labels, read in one
    # array call, against the old scalar code
    p = PhysicalParams(m, -q if flip else q, b, hbar=hbar)
    labels = [(l, n) for n in range(top[0] + 1)
              for l in range(-n, top[1] + 1)] + extra
    l1, n1 = (np.array(c)[:, None] for c in zip(*labels))
    el = angular_element(name, l1, n1, l1.T, n1.T, p)
    assert el.value.shape == el.beyond_table.shape == (len(labels),) * 2
    for i, (lb, nb) in enumerate(labels):
        for j, (lk, nk) in enumerate(labels):
            value, beyond = _angular_element_scalar(name, lb, nb, lk, nk, p)
            assert _bits(el.value[i, j]) == _bits(value)
            assert el.beyond_table[i, j] == beyond
    # scalar labels in, Python scalars out, with the same bits
    for (lb, nb), (lk, nk) in zip(labels, labels[::-1]):
        value, beyond = _angular_element_scalar(name, lb, nb, lk, nk, p)
        one = angular_element(name, lb, nb, lk, nk, p)
        assert type(one.value) in (float, complex)
        assert type(one.beyond_table) is bool
        assert _bits(one.value) == _bits(value)
        assert one.beyond_table == beyond


def test_orbital_between_levels_flagged():
    el = angular_element("L3", 2, 1, 2, 2, P)
    assert el.beyond_table
    assert el.value == pytest.approx(-math.sqrt((2 + 2) * 2), rel=1e-15)
    same = angular_element("L3", 2, 1, 2, 1, P)
    assert not same.beyond_table


def test_label_validation():
    with pytest.raises(ValueError):
        angular_element("M3", -2, 1, 0, 0, P)
    with pytest.raises(ValueError):
        angular_element("M3", np.array([0, -2]), np.array([0, 1]), 0, 0, P)


def test_selection_rules_in_matrices():
    b = _basis()
    p1 = build_observable("p1", P, X0, b)
    t1 = build_observable("T1", P, X0, b)
    for (np1, nm1) in ((0, 0), (2, 3), (5, 1)):
        for (np2, nm2) in ((0, 0), (2, 3), (4, 4), (1, 2)):
            if abs(nm1 - nm2) != 1 or np1 != np2:
                assert p1.element((np1, nm1), (np2, nm2)) == 0
            if nm1 != nm2 or abs(np1 - np2) != 1:
                assert t1.element((np1, nm1), (np2, nm2)) == 0


# -- basis change ---------------------------------------------------------------


def test_change_of_basis_at_origin():
    val = change_of_basis(0, 0.0, P)
    assert val == pytest.approx(math.pi ** -0.25, rel=1e-15)
    assert change_of_basis(1, 0.0, P) == 0


def test_change_of_basis_normalised():
    # oracle: plain Gauss-Hermite quadrature over the eigenvalue line
    t, w = hermgauss(70)
    for p in (P, PhysicalParams(1.2, 2.0, 0.4, hbar=1.7)):
        sig = math.sqrt(p.hbar * p.m * p.omega_c)
        for nplus in (0, 1, 4, 8):
            vals = np.array([change_of_basis(nplus, sig * tt, p) for tt in t])
            total = float(np.sum(w * np.exp(t * t) * np.abs(vals) ** 2) * sig)
            assert total == pytest.approx(1.0, abs=1e-10)


def test_level_phase_factor():
    for nminus in range(4):
        for s in (1, -1):
            p = PhysicalParams(1, 1, s * 1.0)
            ratio = t1_fock_overlap(2, nminus, 0.3, p) / change_of_basis(2, 0.3, p)
            assert ratio == pytest.approx((1j * s) ** nminus, abs=1e-15)


# -- gauge-variant operators -----------------------------------------------------


def test_symmetric_gauge_canonical_angular_momentum_is_charge():
    b = _basis()
    g = GaugeChoice(0.0)
    l3c = gauge_variant_matrix("L3c", g, P, b)
    m3 = build_observable("M3", P, X0, b)
    assert np.array_equal(l3c.matrix, m3.matrix)


def test_first_landau_gauge_momentum_is_charge():
    b = _basis()
    g = GaugeChoice(1.0)
    pi1 = gauge_variant_matrix("pi1", g, P, b)
    t1 = build_observable("T1", P, X0, b)
    assert np.array_equal(pi1.matrix, t1.matrix)


def test_linear_phi_shifts_momentum_by_identity():
    b = _basis()
    g = GaugeChoice(0.0, phi=parse_poly("u1"))
    pi1 = gauge_variant_matrix("pi1", g, P, b)
    t1 = build_observable("T1", P, X0, b)
    x2 = build_observable("x2", P, X0, b)
    expected = t1.matrix + 0.5 * x2.matrix + np.eye(b.dim)
    idx = b.interior_indices(1)
    dev = np.max(np.abs((pi1.matrix - expected)[np.ix_(idx, idx)]))
    assert dev < 1e-14


def test_gauge_variant_matches_direct_construction():
    # pi_i = p_i + q A_i(x) assembled directly from the vector potential
    from landaulab.params import vector_potential_polys

    b = FockBasis(12)
    p = PhysicalParams(1, -1.5, 0.8)
    g = GaugeChoice(0.6, (0.0, 0.0), parse_poly("0.25*u1*u2 - 0.5*u2^2"))
    a1, a2 = vector_potential_polys(g, p.B)
    for which, apoly, mom in (("pi1", a1, "p1"), ("pi2", a2, "p2")):
        dec = gauge_variant_matrix(which, g, p, b)
        direct = build_observable(mom, p, g.x0, b).matrix \
            + p.q * poly_operator(apoly, p, g.x0, b).matrix
        idx = b.interior_indices(3)
        dev = np.max(np.abs((dec.matrix - direct)[np.ix_(idx, idx)]))
        assert dev < 1e-13, which


def test_position_monomials_sorted_distinct_and_bounded():
    b = FockBasis(5)
    keys = [(0, 2), (1, 0), (0, 2), (0, 0)]
    got = list(position_monomials(P, b, keys))
    assert [k for k, _ in got] == [(0, 0), (0, 2), (1, 0)]
    u1 = build_observable("x1", P, (0.0, 0.0), b).matrix
    u2 = build_observable("x2", P, (0.0, 0.0), b).matrix
    eye = np.eye(b.dim, dtype=complex)
    mono = dict(got)
    assert mono[(0, 2)].tobytes() == (eye @ ((eye @ u2) @ u2)).tobytes()
    assert mono[(1, 0)].tobytes() == ((eye @ u1) @ eye).tobytes()
    with pytest.raises(TruncationError):
        position_monomials(P, b, [(3, 3)])


_COEFF = st.floats(-0.1, 0.1, allow_nan=False)


@st.composite
def _scan_setups(draw):
    """Physical parameters of either orientation with non-unit hbar, two
    gauges with random shear and cubic gauge functions at a shared off-origin
    x0, and a truncation up to the scan's."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    p = PhysicalParams(draw(st.floats(0.5, 2.0)), sign * draw(st.floats(0.5, 2.0)),
                       draw(st.floats(0.5, 2.0)), hbar=draw(st.floats(0.6, 1.8)))
    x0 = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    gauges = []
    for _ in range(2):
        terms = {(i, j): draw(_COEFF) for i in range(4) for j in range(4)
                 if 0 < i + j <= 3 and draw(st.booleans())}
        gauges.append(GaugeChoice(draw(st.floats(-1.0, 2.0)), x0,
                                  Poly2(terms)))
    return p, gauges, draw(st.sampled_from([8, 16]))


def _reference_poly_sum(p, b):
    """Reference sum of f(u1, u2) over whole matrices: power chains from the
    identity, then each term's product added from zeros in sorted order."""
    u1 = build_observable("x1", p, (0.0, 0.0), b).matrix
    u2 = build_observable("x2", p, (0.0, 0.0), b).matrix
    pow1, pow2 = [np.eye(b.dim, dtype=complex)], [np.eye(b.dim, dtype=complex)]
    for _ in range(3):
        pow1.append(pow1[-1] @ u1)
        pow2.append(pow2[-1] @ u2)

    def poly_sum(f):
        m = np.zeros((b.dim, b.dim), dtype=complex)
        for (i, j) in sorted(f.terms):
            m += f.terms[(i, j)] * (pow1[i] @ pow2[j])
        return m
    return poly_sum


@settings(max_examples=15, deadline=None)
@given(_scan_setups())
def test_scan_route_entries_equal_full_matrix_entries(setup):
    # the full matrices keep the bits of the partner plus the reference sum;
    # the scan keeps only the entries it reads, of monomials built once for
    # all gauges, and each must carry the same bits
    p, gauges, nmax = setup
    b = FockBasis(nmax)
    pairs = _neighbour_pairs(_angular_states(2, 2))
    route = _canonical_route(p, gauges, b, pairs)
    reference_sum = _reference_poly_sum(p, b)
    for g, entries in zip(gauges, route, strict=True):
        for name in CANONICAL_PARTNER:
            full = gauge_variant_matrix(name, g, p, b)
            extra = canonical_extra(name, g, p)
            reference = reference_sum(extra)
            assert poly_operator(extra, p, g.x0, b).matrix.tobytes() \
                == reference.tobytes()
            assert full.matrix.tobytes() == (build_observable(
                CANONICAL_PARTNER[name], p, g.x0, b).matrix
                + reference).tobytes()
            expected = [full.element((bra[1] + bra[0], bra[1]),
                                     (ket[1] + ket[0], ket[1]))
                        for bra, ket in pairs]
            assert [struct.pack("<dd", z.real, z.imag)
                    for z in entries[name]] \
                == [struct.pack("<dd", z.real, z.imag) for z in expected]
