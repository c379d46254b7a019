import functools
import itertools
import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from landaulab import campaigns, classical
from landaulab import fockspace as fk
from landaulab import GaugeChoice, PhysicalParams, Poly2, parse_poly
from landaulab.classical import PolyObservable, poisson_bracket
from landaulab.campaigns import (_angular_states, _ElementEngine,
                                 _neighbour_pairs, default_gauges,
                                 run_gauge_scan, run_verify_algebra)
from landaulab.fockspace import (FockBasis, FockOperator, TruncationError,
                                 build_observable, change_of_basis,
                                 exact_nmax, gauge_variant_matrix, identity,
                                 ladder_ops, poly_operator,
                                 position_monomials, t1_fock_overlap,
                                 angular_element, OBSERVABLE_NAMES)
from landaulab.params import CANONICAL_PARTNER, DegreeOverflowError
from landaulab.waves import MAX_QUANTUM_NUMBER, t1_basis_function

P = PhysicalParams(1, 1, 1)
X0 = (0.0, 0.0)
EPS = np.finfo(float).eps


def _bits_of(m):
    """Bytes of an array with the sign of zero dropped: ``x + 0.0`` turns
    -0.0 into 0.0 and keeps every other value.  A shift map stores no
    structural zeros, so only its nonzero entries carry meaningful bits."""
    return (np.asarray(m) + 0.0).tobytes()


def _poly_op(f, p, b):
    """:func:`poly_operator` over the monomial table of f's own terms."""
    return poly_operator(f, position_monomials(p, b, f.terms), b)


def _random_operator(b, rng, shifts, reach=None, zeros=0.0):
    """Operator with the given shifts and normal random coefficients, zero
    where the target leaves the basis, the given share of the other
    entries 0.0 or -0.0, and the given reach (default 0)."""
    n = np.arange(b.nmax + 1)

    def inside(d):
        return (n + d >= 0) & (n + d <= b.nmax)

    def coefficients(d):
        c = rng.normal(size=(2, b.nmax + 1, b.nmax + 1))
        hit = rng.random(c.shape) < zeros
        c[hit] = np.copysign(0.0, c[hit])
        return np.where(inside(d[0])[:, None] & inside(d[1])[None, :], c, 0.0)
    return FockOperator(b, {d: coefficients(d) for d in shifts},
                        reach or dict.fromkeys(shifts, (0, 0)))


def _marked(nmax, d, e):
    """The mask over the kets of the entries of shift d that reach e marks
    exact: the target lies in the basis and ``max(n, n + d) + e <= nmax``
    in each sector, written out entry by entry."""
    n = np.arange(nmax + 1)

    def sector(di, ei):
        return (n + di >= 0) & (np.maximum(n, n + di) + ei <= nmax)
    return sector(d[0], e[0])[:, None] & sector(d[1], e[1])[None, :]


def _exact(op):
    """Per shift, the mask of its entries marked exact."""
    return {d: _marked(op.basis.nmax, d, e) for d, e in op.reach.items()}


def _exact_dense(op):
    """The mask of :func:`_exact` on the dense matrix, in
    :meth:`FockBasis.index` order."""
    k = op.basis.nmax + 1
    mask = np.zeros((k,) * 4, dtype=bool)  # [bra+, bra-, ket+, ket-]
    for (d0, d1), exact in _exact(op).items():
        for i, j in zip(*np.nonzero(exact)):
            mask[i + d0, j + d1, i, j] = True
    return mask.reshape(k * k, k * k)


def _block(m, b, margin):
    """The dense block of the states with n+- <= nmax - margin."""
    n = np.arange(b.nmax + 1 - margin)
    idx = (n[:, None] * (b.nmax + 1) + n[None, :]).ravel()
    return m[np.ix_(idx, idx)]


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
    # read on the entries the truncation did not touch: n- < nmax
    comm = am @ amd - amd @ am - identity(b)
    assert comm.reach == {(0, 0): (0, 1)}
    assert np.max(comm.magnitudes()) < 5e-15


def test_truncated_product_drops_states_beyond_the_cutoff():
    # a- a-^dag is n- + 1 below the cutoff and exactly 0 at it, where a-^dag
    # leaves the basis, as in the truncated matrix product; each entry has
    # one term, so both routes round it once
    b = FockBasis(5)
    _, _, am, amd = ladder_ops(b)
    nminus = np.array([nm for _, nm in b.labels()], dtype=float)
    lowered = (am @ amd).matrix
    assert _bits_of(lowered) == _bits_of(np.matmul(am.matrix, amd.matrix))
    assert np.all(np.diag(lowered)[nminus == 5] == 0.0)
    assert np.allclose(lowered, np.diag(np.where(nminus < 5, nminus + 1, 0)),
                       rtol=EPS, atol=0)
    assert np.allclose((amd @ am).matrix, np.diag(nminus), rtol=EPS, atol=0)


_SHIFT = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def _operator_pairs(draw):
    """Two random operators on a basis with nmax 1..8, each with up to nine
    random shifts of |dn+-| <= 4 (or none), random reaches up to 3, and
    some coefficients 0.0 or -0.0: the shapes the campaigns build and
    more."""
    b = FockBasis(draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    reach = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return tuple(
        _random_operator(b, rng, shifts, {d: draw(reach) for d in shifts},
                         draw(st.sampled_from([0.0, 0.3])))
        for shifts in (draw(st.lists(_SHIFT, max_size=9, unique=True))
                       for _ in range(2)))


def _python_entries(op):
    """Every stored entry of op as Python floats: (d, i, j) -> (re, im)."""
    k = op.basis.nmax + 1
    return {(d, i, j): tuple(c[:, i, j].tolist())
            for d, c in op.shifts.items() for i in range(k) for j in range(k)}


def _packed(entries):
    return {key: struct.pack("<dd", *v) for key, v in entries.items()}


def _reference_product(a, b):
    """The documented order of the map product, one entry at a time in
    Python floats: for each pair of shifts in increasing (dA, dB) order and
    each ket n whose intermediate state n + dB and target n + dA + dB lie in
    the basis, the term b[dB](n) * a[dA](n + dB) is
    ``(br ar - bi ai, br ai + bi ar)``, and the terms of one shift and ket
    are summed in that order, from zero."""
    k = a.basis.nmax + 1
    out = {}
    for da, ca in sorted(a.shifts.items()):
        for db, cb in sorted(b.shifts.items()):
            d = (da[0] + db[0], da[1] + db[1])
            for i in range(k):
                for j in range(k):
                    mi, mj = i + db[0], j + db[1]
                    if not all(0 <= v < k for v in (mi, mj, mi + da[0],
                                                   mj + da[1])):
                        continue
                    br, bi = cb[:, i, j].tolist()
                    ar, ai = ca[:, mi, mj].tolist()
                    re, im = out.get((d, i, j), (0.0, 0.0))
                    out[(d, i, j)] = (re + (br * ar - bi * ai),
                                      im + (br * ai + bi * ar))
    return out


def _reference_reach(a, b):
    """The documented reach of each shift of ``a @ b``, pair by pair."""
    reach = {}
    for da, ea in a.reach.items():
        for db, eb in b.reach.items():
            d = (da[0] + db[0], da[1] + db[1])
            r = reach.get(d, (0, 0))
            reach[d] = tuple(max(r[i], max(0, db[i]) + eb[i],
                                 max(db[i], d[i]) + ea[i]) for i in (0, 1))
    return {d: tuple(r - max(0, i) for r, i in zip(e, d))
            for d, e in reach.items()}


@settings(max_examples=60, deadline=None)
@given(_operator_pairs())
def test_map_product_follows_the_fixed_order_reference(ops):
    a, b = ops
    prod = a @ b
    ref = _reference_product(a, b)
    k = a.basis.nmax + 1
    assert prod.reach == _reference_reach(a, b)
    assert list(prod.shifts) == sorted(prod.reach)
    assert {d for d, _, _ in ref} <= set(prod.shifts)
    for d, c in prod.shifts.items():
        for i in range(k):
            for j in range(k):
                if 0 <= i + d[0] < k and 0 <= j + d[1] < k:
                    want = ref.get((d, i, j), (0.0, 0.0))
                    assert _bits_of(c[:, i, j]) == _bits_of(want), (d, i, j)
                else:
                    assert not np.any(c[:, i, j]), (d, i, j)


@settings(max_examples=40, deadline=None)
@given(_operator_pairs())
def test_map_product_matches_dense_truncated_product(ops):
    # within rounding of the dense product, entry by entry: each side sums
    # at most 9 complex products, each off by a few ulp of |a||b|; where
    # no term survives the truncation, both are exactly zero
    a, b = ops
    da, db = a.matrix, b.matrix
    dense = np.matmul(da, db)
    got = (a @ b).matrix
    bound = 40 * EPS * np.matmul(np.abs(da), np.abs(db))
    assert np.all(np.abs(got - dense) <= bound)


@settings(max_examples=60, deadline=None)
@given(_operator_pairs(), st.complex_numbers(max_magnitude=1e3,
                                             allow_nan=False))
def test_sums_scalars_adjoints_and_moduli_follow_python_references(ops, z):
    # every entry, signed zeros included, has the bits of the documented
    # arithmetic in Python floats: a sum or difference op(a, b) per entry
    # over the union of shifts, a shift missing from one side reading 0.0;
    # a scalar multiple (zr cr - zi ci, zr ci + zi cr); the adjoint's
    # conjugate moved to shift -d and ket n + d, 0.0 elsewhere; and the
    # moduli of the exact entries in sorted shift order, row-major
    a, b = ops
    k = a.basis.nmax + 1
    ea, eb = _python_entries(a), _python_entries(b)
    for op, got in ((operator.add, a + b), (operator.sub, a - b)):
        assert list(got.shifts) == sorted(a.shifts.keys() | b.shifts.keys())
        assert got.reach == {d: tuple(map(max, a.reach.get(d, (0, 0)),
                                          b.reach.get(d, (0, 0))))
                             for d in got.shifts}
        want = {key: tuple(op(x, y) for x, y in zip(
            ea.get(key, (0.0, 0.0)), eb.get(key, (0.0, 0.0))))
            for key in _python_entries(got)}
        assert _packed(_python_entries(got)) == _packed(want)
    zr, zi = z.real, z.imag
    scaled = a * z
    assert scaled.reach == a.reach
    assert _packed(_python_entries(scaled)) == _packed({
        key: (zr * cr - zi * ci, zr * ci + zi * cr)
        for key, (cr, ci) in ea.items()})
    adj = a.dagger()
    want = {((-d[0], -d[1]), i, j): (0.0, 0.0) for d, i, j in ea}
    for (d, i, j), (cr, ci) in ea.items():
        if 0 <= i + d[0] < k and 0 <= j + d[1] < k:
            want[((-d[0], -d[1]), i + d[0], j + d[1])] = (cr * 1.0, ci * -1.0)
    assert list(adj.shifts) == sorted((-d0, -d1) for d0, d1 in a.shifts)
    assert adj.reach == {(-d[0], -d[1]): e for d, e in a.reach.items()}
    assert _packed(_python_entries(adj)) == _packed(want)
    moduli = [float(np.hypot(*ea[(d, i, j)])) for d in sorted(a.shifts)
              for i, j in zip(*np.nonzero(_marked(k - 1, d, a.reach[d])))]
    assert a.magnitudes().tobytes() == np.array(moduli, float).tobytes()


def test_product_adds_the_terms_of_a_shift_in_pair_order():
    # three terms land on shift (0, 0) at the kets with 1 <= n+ <= 3: 1e16,
    # -1e16 and 1, in increasing (dA, dB) order; summed in that order from
    # zero they give 1.0, in any order that adds 1 before either big term
    # they give 0.0
    b = FockBasis(4)
    n = np.arange(5)

    def const(d, value):
        inside = [(n + di >= 0) & (n + di <= 4) for di in d]
        return np.stack((np.where(inside[0][:, None] & inside[1], value, 0.0),
                         np.zeros((5, 5))))
    steps = [(-1, 0), (0, 0), (1, 0)]
    a = FockOperator(b, {d: const(d, v) for d, v in
                         zip(steps, (1e16, -1e16, 1.0))},
                     dict.fromkeys(steps, (0, 0)))
    ones = FockOperator(b, {d: const(d, 1.0) for d in steps},
                        dict.fromkeys(steps, (0, 0)))
    assert (1e16 + 1.0) - 1e16 == (1.0 - 1e16) + 1e16 == 0.0
    diag = (a @ ones).shifts[(0, 0)]
    assert np.all(diag[0, 1:4] == 1.0) and not np.any(diag[1])


def _plan_caches():
    return (fk._product_plan, fk._union_plan, fk._dagger_plan, fk._exact_plan)


@settings(max_examples=20, deadline=None)
@given(_operator_pairs())
def test_operations_keep_their_bits_from_a_cold_plan_cache_and_their_operands(
        ops):
    # every operation gives the same bits whether its plan is cached or
    # built afresh, and none writes into an operand: the stacks are
    # read-only and keep their bytes
    a, b = ops
    before = [op.stack.tobytes() for op in ops]

    def run():
        return [a @ b, b @ a, a + b, a - b, 1.5j * a, a.dagger()], \
            [a.magnitudes(), (a @ b).magnitudes()]
    warm_ops, warm_mods = run()
    for cache in _plan_caches():
        cache.cache_clear()
    cold_ops, cold_mods = run()
    for warm, cold in zip(warm_ops, cold_ops):
        assert warm.keys == cold.keys and warm.reaches == cold.reaches
        assert warm.stack.tobytes() == cold.stack.tobytes()
    for warm, cold in zip(warm_mods, cold_mods):
        assert warm.tobytes() == cold.tobytes()
    assert [op.stack.tobytes() for op in ops] == before
    for op in (*ops, *warm_ops):
        assert not op.stack.flags.writeable
        assert not any(c.flags.writeable for c in op.shifts.values())


def _kron_observables(p, x0, b):
    """The dense construction the shift maps replaced: Kronecker products of
    one-sector ladder matrices in complex arithmetic.  numpy's complex
    division by a real scalar multiplies by its reciprocal, which the
    ``xc`` rows write out."""
    k = b.nmax + 1
    a = np.diag(np.sqrt(np.arange(1.0, k)), 1)
    eye = np.eye(k)
    ap = np.kron(a, eye).astype(complex)
    am = np.kron(eye, a).astype(complex)
    apd, amd = ap.conj().T, am.conj().T
    s, hb, lam = p.sign, p.hbar, p.magnetic_length
    c = math.sqrt(hb * p.m * p.omega_c / 2.0)
    nplus = np.repeat(np.arange(k), k).astype(float)
    nminus = np.tile(np.arange(k), k).astype(float)
    one = np.eye(b.dim)
    t1 = 1j * c * (apd - ap)
    t2 = (s * c) * (apd + ap)
    x = np.matmul(apd, amd)
    m1 = (lam / math.sqrt(2.0)) * (ap + am)
    m2 = (1j * s * lam / math.sqrt(2.0)) * (ap - am)
    return {
        "H": np.diag(hb * p.omega_c * (nminus + 0.5)).astype(complex),
        "M3": np.diag(s * hb * (nplus - nminus)).astype(complex),
        "T1": t1, "T2": t2,
        "p1": 1j * c * (amd - am), "p2": (-s * c) * (amd + am),
        "L3": -s * hb * (np.diag(2.0 * nminus + 1.0) + x + x.conj().T),
        "x1": x0[0] * one + m1 + m1.conj().T,
        "x2": x0[1] * one + m2 + m2.conj().T,
        "xc1": x0[0] * one + t2 * (1.0 / p.qB),
        "xc2": x0[1] * one - t1 * (1.0 / p.qB),
    }


@pytest.mark.parametrize("nmax", [3, 8])
@pytest.mark.parametrize("p, x0", [
    (PhysicalParams(1, 1, 1), (0.0, 0.0)),
    (PhysicalParams(1.3, -0.8, 1.1, hbar=0.7), (0.3, -0.2)),
    (PhysicalParams(0.6, 1.9, 0.7, hbar=1.6), (-0.9, 0.4)),
])
def test_observables_match_kron_construction(nmax, p, x0):
    b = FockBasis(nmax)
    want = _kron_observables(p, x0, b)
    for name in OBSERVABLE_NAMES:
        got = build_observable(name, p, x0, b).matrix
        assert _bits_of(got) == _bits_of(want[name]), name


def test_interior_entries_do_not_depend_on_truncation():
    # every entry a product marks exact at nmax n equals its entry at
    # n + 4 bit for bit, being the same terms summed in the same order;
    # entries left unmarked lose terms at the top edge, and some differ
    p = PhysicalParams(1.3, -0.8, 1.1, hbar=0.7)
    x0 = (0.3, -0.2)
    rng = np.random.default_rng(21)
    differ = 0
    for _ in range(60):
        nmax = int(rng.integers(2, 10))
        names = rng.choice(OBSERVABLE_NAMES, size=int(rng.integers(2, 5)))
        small, large = (functools.reduce(operator.matmul, [
            build_observable(name, p, x0, FockBasis(n)) for name in names])
            for n in (nmax, nmax + 4))
        assert small.reach == large.reach
        for d, exact in _exact(small).items():
            got, want = small.shifts[d], large.shifts[d][:, :nmax + 1,
                                                         :nmax + 1]
            assert _bits_of(got[:, exact]) == _bits_of(want[:, exact]), \
                (names, d)
            rest = _marked(nmax, d, (0, 0)) & ~exact
            differ += np.count_nonzero(np.any(got[:, rest] != want[:, rest],
                                              axis=0))
    assert differ > 0


def test_exact_nmax_is_the_truncation_that_marks_an_entry_exact():
    # an entry is marked exact at nmax iff exact_nmax of its labels is at
    # most nmax; the product's reach does not depend on nmax
    p = PhysicalParams(1.3, -0.8, 1.1, hbar=0.7)
    b = FockBasis(6)
    op = build_observable("L3", p, X0, b) @ build_observable("x1", p, X0, b)
    kets = np.array(b.labels())
    for d, exact in _exact(op).items():
        stored = _marked(b.nmax, d, (0, 0)).ravel()
        need = np.array([exact_nmax([op], tuple(ket + d), tuple(ket))
                         for ket in kets[stored]])
        assert np.array_equal(need <= b.nmax, exact.ravel()[stored]), d
    assert exact_nmax([op], ([0, 9], [0, 0]), ([0, 8], [0, 0])) == 9


def test_exact_nmax_is_the_largest_need_of_an_entry():
    # over label arrays, the need of the entry that needs most: the larger
    # label plus its shift's reach per sector, reach 0 off the stored shifts
    rng = np.random.default_rng(5)
    b = FockBasis(4)
    shifts = [(0, 0), (1, -1), (-2, 0), (0, 3)]
    ops = [_random_operator(b, rng, shifts, {
        d: tuple(int(e) for e in rng.integers(0, 4, 2)) for d in shifts})
        for _ in range(3)]
    bra, ket = rng.integers(0, 9, (2, 2, 40))
    want = max(max(max(bp, kp) + e[0], max(bm, km) + e[1])
               for op in ops for bp, bm, kp, km in zip(*bra, *ket)
               for e in [op.reach.get((bp - kp, bm - km), (0, 0))])
    assert exact_nmax(ops, tuple(bra), tuple(ket)) == want
    assert exact_nmax([], tuple(bra), tuple(ket)) == 0


def test_every_observable_exactly_hermitian():
    b = _basis()
    for name in OBSERVABLE_NAMES:
        op = build_observable(name, P, (0.3, -0.2), b)
        assert not np.any((op - op.dagger()).magnitudes()), name


@pytest.mark.parametrize("nmax", [6, 16])
@pytest.mark.parametrize("p, x0", [
    (PhysicalParams(1, 1, 1), (0.0, 0.0)),
    (PhysicalParams(1.3, -0.8, 1.1, hbar=0.7), (0.3, -0.2)),
    (PhysicalParams(0.6, 1.9, 0.7, hbar=1.6), (-0.9, 0.4)),
])
def test_diagonal_products_are_exact_broadcasts(nmax, p, x0):
    # H and M3 are the single shift (0, 0): every entry of a product with
    # them has one term, so the map product is the broadcast of the
    # diagonal, bit for bit, and so is the dense product
    b = FockBasis(nmax)
    ops = {name: build_observable(name, p, x0, b) for name in OBSERVABLE_NAMES}
    for dname in ("H", "M3"):
        diag = ops[dname]
        assert list(diag.shifts) == [(0, 0)]
        dense = diag.matrix
        d = np.diag(dense)
        assert np.array_equal(dense, np.diag(d))
        for name, op in ops.items():
            a = op.matrix
            assert _bits_of((op @ diag).matrix) == _bits_of(a * d[None, :]) \
                == _bits_of(np.matmul(a, dense)), (name, dname)
            assert _bits_of((diag @ op).matrix) == _bits_of(d[:, None] * a) \
                == _bits_of(np.matmul(dense, a)), (dname, name)


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
    rep = run_verify_algebra(p, nmax=12, x0=(0.2, -0.4))
    by_id = {c.id: c for c in rep.checks}
    for cid in ("comm:[T1,T2]", "comm:[xc1,p1]", "comm:[xc1,p2]",
                "comm:[xc2,p1]", "comm:[xc2,p2]", "comm:[T1,M3]"):
        assert by_id[cid].tolerance == 1e-12
        assert by_id[cid].passed, by_id[cid]


def _commutator_reference(p, nmax, x0, exact):
    """Every comm:* deviation of verify-algebra, each commutator formed from
    the full dense products, subtracted, and then read on the dense mask
    ``exact[id]`` of its exact entries, with the scale of its rounding: the
    largest entry of |A||B| plus the largest expected entry."""
    b = FockBasis(nmax)
    m = {name: build_observable(name, p, x0, b).matrix
         for name in OBSERVABLE_NAMES}
    eye = np.eye(b.dim, dtype=complex)
    m["u1"] = m["x1"] - x0[0] * eye
    m["u2"] = m["x2"] - x0[1] * eye
    hb, s, w, qb = p.hbar, p.sign, p.omega_c, p.qB
    expected = {
        "[x1,p1]": 1j * hb * eye, "[x2,p2]": 1j * hb * eye,
        "[p1,p2]": 1j * hb * qb * eye,
        "[T1,T2]": -1j * hb * s * p.m * w * eye,
        "[T1,M3]": -1j * hb * m["T2"], "[T2,M3]": 1j * hb * m["T1"],
        "[xc1,xc2]": (-1j * hb / qb) * eye,
        "[p1,H]": 1j * s * hb * w * m["p2"],
        "[p2,H]": -1j * s * hb * w * m["p1"],
        "[T1,L3]": -1j * hb * m["p2"], "[T2,L3]": 1j * hb * m["p1"],
        "[p1,L3]": 1j * hb * m["T2"] - 2j * hb * m["p2"],
        "[p2,L3]": -1j * hb * m["T1"] + 2j * hb * m["p1"],
        "[x1,T1]": 1j * hb * eye, "[x2,T2]": 1j * hb * eye,
        "[u1,M3]": -1j * hb * m["u2"], "[u2,M3]": 1j * hb * m["u1"],
        "[p1,M3]": -1j * hb * m["p2"], "[p2,M3]": 1j * hb * m["p1"],
        "[L3,H]": -0.5j * s * hb * w * (
            m["u1"] @ m["p1"] + m["p1"] @ m["u1"]
            + m["u2"] @ m["p2"] + m["p2"] @ m["u2"]),
    }
    zero = ("[x1,p2]", "[x2,p1]", "[T1,H]", "[T2,H]", "[M3,H]", "[xc1,H]",
            "[xc2,H]", "[xc1,p1]", "[xc1,p2]", "[xc2,p1]", "[xc2,p2]",
            "[L3,M3]", "[x1,T2]", "[p1,T1]", "[p2,T2]")
    expected.update(dict.fromkeys(zero, 0.0))
    dev = {}
    for pair, want in expected.items():
        a, c = pair[1:-1].split(",")
        comm = m[a] @ m[c] - m[c] @ m[a] - want
        scale = np.max(np.abs(m[a]) @ np.abs(m[c])) + np.max(np.abs(want))
        dev[f"comm:{pair}"] = (float(np.max(np.abs(comm[exact[pair]]))),
                               float(scale))
    return dev


def _read_by_verify_algebra(p, nmax, x0):
    """verify-algebra's report and, per check that reads a map operator's
    exact entries, that operator, in check order."""
    read = []
    magnitudes = FockOperator.magnitudes

    def recorded(op):
        read.append(op)
        return magnitudes(op)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FockOperator, "magnitudes", recorded)
        rep = run_verify_algebra(p, nmax=nmax, x0=x0)
    ids = [c.id for c in rep.checks if not c.id.startswith("spectrum:")]
    assert len(ids) == len(read)
    return rep, dict(zip(ids, read))


# truncations top - drop: every nmax from 4 to 12
@pytest.mark.parametrize("top", [8, 12])
@pytest.mark.parametrize("drop", range(5))
@pytest.mark.parametrize("p", [PhysicalParams(1.3, -1.0, 0.7, hbar=0.6),
                               PhysicalParams(0.8, 1.2, 1.5, hbar=1.7)],
                         ids=["qB<0", "qB>0"])
def test_commutators_on_interior_block_match_full_products(p, drop, top):
    # verify-algebra reads each commutator's exact entries from the shift
    # maps; the full dense products sum the same terms in another order, so
    # every deviation agrees with the dense route's on the same entries to
    # within rounding
    nmax, x0 = top - drop, (0.3, -0.2)
    rep, read = _read_by_verify_algebra(p, nmax, x0)
    exact = {cid[5:]: _exact_dense(op) for cid, op in read.items()
             if cid.startswith("comm:")}
    got = {c.id: c.deviation for c in rep.checks if c.id.startswith("comm:")}
    want = _commutator_reference(p, nmax, x0, exact)
    assert got.keys() == want.keys()
    for cid, (dev, scale) in want.items():
        assert abs(got[cid] - dev) <= 40 * EPS * scale, cid


@pytest.mark.parametrize("p, x0", [
    (PhysicalParams(1, 1, 1), (0.0, 0.0)),
    (PhysicalParams(1.3, -1.0, 0.7, hbar=0.6), (0.3, -0.2))],
    ids=["unit", "variant"])
def test_verify_algebra_passes_at_every_truncation(p, x0):
    # every comm:* and charge-relation check reads at least one exact entry
    for nmax in range(1, MAX_QUANTUM_NUMBER + 1):
        rep, read = _read_by_verify_algebra(p, nmax, x0)
        assert rep.passed, (nmax, [c.id for c in rep.checks if not c.passed])
        for cid, op in read.items():
            if cid.startswith("comm:") or cid == "charge-relation":
                assert op.magnitudes().size, (nmax, cid)


def test_quantum_charge_relation_margin_two():
    b = FockBasis(12)
    p = PhysicalParams(2.0, 1.5, -0.5, hbar=0.7)
    t1 = build_observable("T1", p, X0, b)
    t2 = build_observable("T2", p, X0, b)
    h = build_observable("H", p, X0, b)
    m3 = build_observable("M3", p, X0, b)
    rel = (t1.matrix @ t1.matrix + t2.matrix @ t2.matrix
           - 2 * p.m * h.matrix - 2 * p.qB * m3.matrix)
    assert np.max(np.abs(_block(rel, b, 2))) < 1e-12


@pytest.mark.parametrize("nmax", [8, 16])
def test_magnitudes_equal_interior_gather(nmax):
    # a deviation reads the stored entries the reach marks exact: the
    # moduli of the dense matrix's entries at the stored shifts whose ket
    # and target, the larger plus the reach, stay within nmax
    b = FockBasis(nmax)
    rng = np.random.default_rng(nmax)
    shifts = [(0, 0), (1, 0), (-1, 2), (2, -2), (3, 3)]
    labels = np.array(b.labels())
    step = labels[:, None, :] - labels[None, :, :]
    top = np.maximum(labels[:, None, :], labels[None, :, :])
    for reach in [(0, 0), (1, 0), (0, 2), (3, 1), (nmax, 0), (nmax + 1, 0)]:
        op = _random_operator(b, rng, shifts, dict.fromkeys(shifts, reach))
        m = op.matrix
        exact = np.zeros(m.shape, dtype=bool)
        for d in shifts:
            exact |= ((step[..., 0] == d[0]) & (step[..., 1] == d[1])
                      & np.all(top + reach <= nmax, axis=-1))
        assert np.array_equal(exact, _exact_dense(op))
        want = np.sort(np.hypot(m.real, m.imag)[exact])
        assert np.sort(op.magnitudes()).tobytes() == want.tobytes()


# -- polynomial position operators -------------------------------------------


def test_poly_operator_constant_is_identity():
    b = _basis()
    op = _poly_op(Poly2.const(1.0), P, b)
    assert np.array_equal(op.matrix, np.eye(b.dim, dtype=complex))


def test_poly_operator_linear_vacuum_element():
    op = _poly_op(parse_poly("u1"), P, _basis())
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
    op = _poly_op(parse_poly("u1^2 + u2^2"), P, _basis())
    val = op.element((0, 0), (0, 0))
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val == pytest.approx(2.0 * lam * lam, rel=1e-12)


def test_poly_operator_degree_guard():
    with pytest.raises(TruncationError):
        _poly_op(parse_poly("u1^4"), P, FockBasis(3))
    # Weyl's exact range, degree 2, is built at every nmax: the reach marks
    # which entries the truncation left exact
    square = _poly_op(parse_poly("u1^2"), P, FockBasis(1))
    assert square.reach[(0, 0)] == (1, 1)


def test_position_monomials_refuses_momentum_beyond_degree_two():
    # Weyl quantisation is exact only up to degree 2 (Groenewold 1946); a
    # position key of any degree keeps its power-chain product
    b = FockBasis(6)
    for key in ((1, 0, 2, 0), (0, 0, 0, 3), (1, 1, 0, 1)):
        with pytest.raises(DegreeOverflowError, match="degree 2"):
            position_monomials(P, b, [key])
    assert list(position_monomials(P, b, [(3, 0, 0, 0)])) == [(3, 0, 0, 0)]


def test_momentum_monomials_are_symmetrised_products():
    # a key with a momentum factor: the coordinate, its square, or half the
    # sum of both orders of its two coordinates, over origin-free position
    # operators; the position keys of a four-variable table have the bits
    # of the same keys in two variables
    p = PhysicalParams(1.3, -0.7, 1.9, hbar=1.4)
    b = FockBasis(5)
    u1, u2, p1, p2 = (build_observable(x, p, (0.0, 0.0), b)
                      for x in ("x1", "x2", "p1", "p2"))
    mono = position_monomials(p, b, [(0, 0, 1, 0), (0, 0, 0, 2),
                                     (1, 0, 1, 0), (0, 1, 0, 1),
                                     (2, 0, 0, 0), (1, 1, 0, 0)])
    want = {(0, 0, 1, 0): p1, (0, 0, 0, 2): p2 @ p2,
            (1, 0, 1, 0): 0.5 * (u1 @ p1 + p1 @ u1),
            (0, 1, 0, 1): 0.5 * (u2 @ p2 + p2 @ u2)}
    for key, op in want.items():
        assert mono[key].shifts.keys() == op.shifts.keys(), key
        assert mono[key].reach == op.reach, key
        for d, c in op.shifts.items():
            assert _bits_of(mono[key].shifts[d]) == _bits_of(c), (key, d)
    plane = position_monomials(p, b, [(2, 0), (1, 1)])
    for key in plane:
        assert _bits_of(plane[key].matrix) \
            == _bits_of(mono[key + (0, 0)].matrix), key


_QUADRATIC = [k for k in itertools.product(range(3), repeat=4) if sum(k) <= 2]


@st.composite
def _quadratic_observables(draw):
    """Physical parameters of either orientation with non-unit hbar, two
    phase-space polynomials of degree at most 2 and a truncation."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    p = PhysicalParams(draw(st.floats(0.5, 2.0)),
                       sign * draw(st.floats(0.5, 2.0)),
                       draw(st.floats(0.5, 2.0)), hbar=draw(st.floats(0.6, 1.8)))
    f, g = (PolyObservable({key: draw(st.floats(-1.0, 1.0))
                            for key in _QUADRATIC if draw(st.booleans())})
            for _ in range(2))
    return p, f, g, draw(st.sampled_from([1, 2, 5, 9]))


@settings(max_examples=40, deadline=None)
@given(_quadratic_observables())
def test_weyl_map_sends_brackets_to_commutators(case):
    # for degree at most 2 the Weyl map Q is exact: [Q(f), Q(g)] equals
    # i hbar Q({f, g}) on every entry the truncation left exact, to within
    # the rounding of the products
    p, f, g, nmax = case
    b = FockBasis(nmax)
    bracket = poisson_bracket(f, g, p)
    table = position_monomials(p, b, [*f.terms, *g.terms, *bracket.terms])
    qf, qg, qb = (poly_operator(h, table, b) for h in (f, g, bracket))
    gap = qf @ qg - qg @ qf - 1j * p.hbar * qb
    scale = sum(np.max(op.magnitudes(), initial=0.0) for op in (qf, qg))
    assert np.max(gap.magnitudes(), initial=0.0) <= 16 * EPS * (1 + scale) ** 2


def _flipped_term(make, key):
    """``make`` with the sign of the ``key`` term of its polynomials
    flipped, where they hold one."""
    def flipped(*args):
        terms = dict(make(*args).terms)
        if key in terms:
            terms[key] = -terms[key]
        return PolyObservable(terms)
    return flipped


def _failed(campaign="verify-algebra", **patches):
    """The ids of a campaign's failed checks with the given module
    attributes replaced, at non-unit parameters, qB < 0 and off-origin x0:
    verify-algebra, a 400-step classical-sim, or reproduce-tables in a
    sheared gauge with a cubic gauge function."""
    p = PhysicalParams(1.3, -0.7, 1.9, hbar=1.4)
    with pytest.MonkeyPatch.context() as mp:
        for target, value in patches.items():
            module, name = target.split(".")
            mp.setattr({"cl": classical, "fk": fk}[module], name, value)
        if campaign == "verify-algebra":
            rep = run_verify_algebra(p, nmax=8, x0=(0.4, -0.8))
        elif campaign == "classical-sim":
            rep, _ = campaigns.run_classical_sim(p, steps=400, x0=(0.4, -0.8))
        else:
            gauge = GaugeChoice(0.37, (0.4, -0.8),
                                parse_poly("0.05*u1^2*u2 - 0.1*u1 + 0.02*u2^3"))
            rep, _ = campaigns.run_reproduce_tables(p, nmax=14, grid_k=56,
                                                    gauge=gauge)
    return {c.id for c in rep.checks if not c.passed}


@pytest.mark.parametrize("name, target, key", [
    ("M3", "rotation_observable", (0, 1, 1, 0)),
    ("H", "energy_observable", (0, 0, 2, 0)),
    ("T1", "translation_observable", (0, 1, 0, 0)),
])
def test_sign_flip_in_a_classical_observable_fails_its_checks(name, target,
                                                              key):
    # the classical polynomial states what each observable is: a sign error
    # there fails its quantisation check and a commutator it enters, the
    # classical route, which evaluates the same table, fails the drift of
    # its charge, and the wave-function route, which quantises the table,
    # fails its angular table against the closed form where the observable
    # has one there
    flipped = {f"cl.{target}": _flipped_term(getattr(classical, target), key)}
    failed = _failed(**flipped)
    assert f"quantisation:{name}" in failed
    assert any(cid.startswith("comm:") and name in cid for cid in failed)
    assert _failed() == set()
    charge = "E" if name == "H" else name
    assert f"drift:{charge}" in _failed("classical-sim", **flipped)
    assert _failed("classical-sim") == set()
    if name in campaigns._TABLE_OPS:
        assert f"angular:{name}:closed-vs-quadrature" \
            in _failed("reproduce-tables", **flipped)
        assert _failed("reproduce-tables") == set()


@pytest.mark.parametrize("name", fk.OBSERVABLE_NAMES)
def test_sign_flip_in_build_observable_fails_its_quantisation(name):
    # the coordinates x1, x2, p1, p2 are the Weyl map's own factors, so a
    # sign error in them shows in the commutators instead
    build = fk.build_observable

    def flipped(which, *args):
        op = build(which, *args)
        return -1.0 * op if which == name else op
    failed = _failed(**{"fk.build_observable": flipped})
    if name in ("x1", "x2", "p1", "p2"):
        assert any(cid.startswith("comm:") and name in cid for cid in failed)
    else:
        assert f"quantisation:{name}" in failed


def test_poly_operator_commutes_positions():
    # u1 u2 vs u2 u1 ordering agrees on the interior
    b = _basis()
    f12 = _poly_op(Poly2({(1, 1): 1.0}), P, b)
    x1 = _poly_op(parse_poly("u1"), P, b)
    x2 = _poly_op(parse_poly("u2"), P, b)
    alt = x2 @ x1
    assert np.max(np.abs(_block(f12.matrix - alt.matrix, b, 2))) < 1e-14


# -- closed-form matrix elements ----------------------------------------------


def test_angular_elements_examples():
    assert angular_element("M3", 3, 2, 3, 2, P) == 3.0
    assert angular_element("p1", 0, 0, 0, 0, P) == 0
    assert angular_element("L3", 0, 1, 0, 1, P) == -3.0
    assert angular_element("T1", 1, 0, 0, 0, P) == pytest.approx(
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
                        closed = angular_element(name, l1, n1, l2, n2, p)
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
        return hb * p.omega_c * (n1 + 0.5) * d(l1, l2) * d(n1, n2)
    if name == "T1":
        return 1j * c * (up(l1 == l2 + 1, n1 + l1)
                         - up(l2 == l1 + 1, n1 + l2)) * d(n1, n2)
    if name == "T2":
        return s * c * (up(l1 == l2 + 1, n1 + l1)
                        + up(l2 == l1 + 1, n1 + l2)) * d(n1, n2)
    if name == "M3":
        return s * hb * l1 * d(l1, l2) * d(n1, n2)
    if name == "p1":
        return 1j * c * (up(l2 == l1 + 1 and n1 == n2 + 1, n1)
                         - up(l1 == l2 + 1 and n2 == n1 + 1, n2))
    if name == "p2":
        return -s * c * (up(l2 == l1 + 1 and n1 == n2 + 1, n1)
                         + up(l1 == l2 + 1 and n2 == n1 + 1, n2))
    assert name == "L3"
    if n1 == n2:
        return -s * hb * (2 * n1 + 1) * d(l1, l2)
    v = 0.0
    if l1 == l2:
        if n1 == n2 + 1:
            v = -s * hb * math.sqrt((n2 + l2 + 1) * (n2 + 1))
        elif n2 == n1 + 1:
            v = -s * hb * math.sqrt((n2 + l2) * n2)
    return complex(v)


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
    assert el.shape == (len(labels),) * 2
    for i, (lb, nb) in enumerate(labels):
        for j, (lk, nk) in enumerate(labels):
            value = _angular_element_scalar(name, lb, nb, lk, nk, p)
            assert _bits(el[i, j]) == _bits(value)
    # scalar labels in, Python scalars out, with the same bits
    for (lb, nb), (lk, nk) in zip(labels, labels[::-1]):
        value = _angular_element_scalar(name, lb, nb, lk, nk, p)
        one = angular_element(name, lb, nb, lk, nk, p)
        assert type(one) in (float, complex)
        assert _bits(one) == _bits(value)


def test_orbital_between_levels_flagged():
    el = angular_element("L3", 2, 1, 2, 2, P)
    assert el == pytest.approx(-math.sqrt((2 + 2) * 2), rel=1e-15)


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


@pytest.mark.parametrize("p", [P, PhysicalParams(1.3, -1.0, 0.7, hbar=0.6)],
                         ids=["unit", "negative-orientation"])
def test_basis_change_on_arrays_keeps_the_scalar_bits(p):
    # every entry of an array call, signed zeros included, has the bits of
    # its scalar call; the coefficient is the conjugate profile value
    sig = math.sqrt(p.hbar * p.m * p.omega_c)
    t = np.concatenate([np.random.default_rng(3).uniform(-9, 9, 64) * sig,
                        [0.0, -0.0, 1e-300, 20.0 * sig], hermgauss(56)[0]])
    for nplus in range(MAX_QUANTUM_NUMBER + 1):
        got = change_of_basis(nplus, t, p)
        assert got.tobytes() == np.array(
            [change_of_basis(nplus, tt, p) for tt in t.tolist()]).tobytes()
        assert got.tobytes() == np.conj(
            t1_basis_function(nplus, p).value(t, 0.0)).tobytes()
        for nminus in (0, 1, 2, 3):
            got = t1_fock_overlap(nplus, nminus, t, p)
            assert got.tobytes() == np.array(
                [t1_fock_overlap(nplus, nminus, tt, p)
                 for tt in t.tolist()]).tobytes()


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
    assert np.max(np.abs(_block(pi1.matrix - expected, b, 1))) < 1e-14


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
            + p.q * _poly_op(apoly, p, b).matrix
        assert np.max(np.abs(_block(dec.matrix - direct, b, 3))) < 1e-13, \
            which


def test_position_monomials_sorted_distinct_and_bounded():
    # one monomial per distinct key, in sorted order, with the same bits
    # whichever key set asks for it; a product with the identity copies its
    # other factor exactly, and the rest are within rounding of the dense
    # power chains
    b = FockBasis(5)
    mono = position_monomials(P, b, [(0, 2), (1, 0), (0, 2), (0, 0)])
    assert list(mono) == [(0, 0), (0, 2), (1, 0)]
    wider = position_monomials(P, b, [(2, 1), (1, 0), (0, 2), (0, 3)])
    for key in ((0, 2), (1, 0)):
        assert _bits_of(mono[key].matrix) == _bits_of(wider[key].matrix)
    u1 = build_observable("x1", P, (0.0, 0.0), b).matrix
    u2 = build_observable("x2", P, (0.0, 0.0), b).matrix
    assert np.array_equal(mono[(0, 0)].matrix, np.eye(b.dim))
    assert _bits_of(mono[(1, 0)].matrix) == _bits_of(u1)
    for key, dense in (((0, 2), np.matmul(u2, u2)),
                       ((2, 1), np.matmul(np.matmul(u1, u1), u2))):
        got = (mono if key in mono else wider)[key].matrix
        bound = 16 * EPS * np.max(np.abs(dense))
        assert np.max(np.abs(got - dense)) <= bound, key
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
    """Dense reference sum of f(u1, u2): BLAS power chains from the
    identity, then each term's product added from zeros in sorted order."""
    u1 = build_observable("x1", p, (0.0, 0.0), b).matrix
    u2 = build_observable("x2", p, (0.0, 0.0), b).matrix
    pow1, pow2 = [np.eye(b.dim, dtype=complex)], [np.eye(b.dim, dtype=complex)]
    for _ in range(3):
        pow1.append(pow1[-1] @ u1)
        pow2.append(pow2[-1] @ u2)

    def poly_sum(f):
        m = np.zeros((b.dim, b.dim), dtype=complex)
        for key in sorted(f.terms):
            m += f.terms[key] * (pow1[key[0]] @ pow2[key[1]])
        return m
    return poly_sum


@settings(max_examples=15, deadline=None)
@given(_scan_setups())
def test_scan_route_entries_equal_full_matrix_entries(setup):
    # gauge_variant_matrix's entries at the angular-label pairs each carry
    # the bits of the operator's own element, and the operator is the
    # partner plus the polynomial term, within rounding of the dense
    # power-chain sum.  The scan builds its Fock route from partners and one
    # monomial table for all gauges: every entry it reads, for the drawn
    # gauges and every default gauge, has gauge_variant_matrix's bits
    p, gauges, nmax = setup
    scan_gauges = gauges + default_gauges(7, gauges[0].x0)
    read = []
    entries = FockOperator.entries

    def recorded(op, bra, ket):
        read.append((bra, ket, entries(op, bra, ket)))
        return read[-1][2]
    with pytest.MonkeyPatch.context() as mp:
        # the quadrature side is left out: only the Fock route is read
        mp.setattr(_ElementEngine, "load", lambda self, *args: None)
        mp.setattr(_ElementEngine, "elements",
                   lambda self, requests: dict.fromkeys(requests, 0j))
        mp.setattr(FockOperator, "entries", recorded)
        run_gauge_scan(p, scan_gauges, nmax=nmax, grid_k=8, levels=2)
    assert len(read) == len(scan_gauges) * len(CANONICAL_PARTNER)
    routes = [(g, name) for g in scan_gauges for name in CANONICAL_PARTNER]
    for (bra, ket, got), (g, name) in zip(read, routes):
        want = gauge_variant_matrix(name, g, p, FockBasis(nmax))
        assert got.tobytes() == want.entries(bra, ket).tobytes(), name

    b = FockBasis(nmax)
    pairs = _neighbour_pairs(_angular_states(2))
    at = [((bra[1] + bra[0], bra[1]), (ket[1] + ket[0], ket[1]))
          for bra, ket in pairs]
    bras, kets = (tuple(np.array(c) for c in zip(*side)) for side in zip(*at))
    reference_sum = _reference_poly_sum(p, b)
    for g in gauges:
        for name in CANONICAL_PARTNER:
            full = gauge_variant_matrix(name, g, p, b)
            f = classical.observables(p, g)
            extra = f[name] - f[CANONICAL_PARTNER[name]]
            partner = build_observable(CANONICAL_PARTNER[name], p, g.x0, b)
            summed = partner + _poly_op(extra, p, b)
            assert full.shifts.keys() == summed.shifts.keys()
            for d, c in full.shifts.items():
                assert _bits_of(c) == _bits_of(summed.shifts[d]), d
            dense = full.matrix
            assert [_bits(z) for z in full.entries(bras, kets).tolist()] \
                == [_bits(dense[b.index(*bra), b.index(*ket)])
                    for bra, ket in at]
            reference = partner.matrix + reference_sum(extra)
            bound = 64 * EPS * max(1.0, np.max(np.abs(reference)))
            assert np.max(np.abs(dense - reference)) <= bound


def test_a_scan_builds_each_gauges_observable_table_once(monkeypatch):
    # both routes of a gauge read one classical.observables table: 7 builds
    # for the 7 default gauges, wherever the table is read
    from landaulab import waves
    built = []
    build = classical.observables

    def counted(p, g):
        built.append(g)
        return build(p, g)
    for module in (classical, fk, waves):
        monkeypatch.setattr(module, "observables", counted)
    gauges = default_gauges(7)
    assert run_gauge_scan(P, gauges, nmax=8, grid_k=40, levels=2).passed
    assert built == gauges
