import math
import struct
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landaulab import GaugeChoice, PhysicalParams, Poly2, parse_poly
from landaulab import quadrature as quad
from landaulab import waves as wv
from landaulab.campaigns import (_SCAN_OPS, TABLE_INDEX_TOP, _angular_states,
                                 _default_grid, _ElementEngine,
                                 _neighbour_pairs, _t1_level_rows,
                                 default_gauges, run_basis_change,
                                 run_gauge_scan, run_heisenberg_demo,
                                 run_reproduce_tables)
from landaulab.fockspace import change_of_basis, t1_fock_overlap
from landaulab.params import CANONICAL_PARTNER, OriginMismatchError
from landaulab.quadrature import (Grid2, SupportOverflowError,
                                  _axis_gauss_hermite, _fsum_rows,
                                  _weighted_sums, inner_product,
                                  integrate_rows, line_integral,
                                  matrix_element)
from landaulab.waves import fock_state, plane_wave, position_ops, t1_state

P = PhysicalParams(1, 1, 1)
SYM = GaugeChoice(0.0)
GEN = GaugeChoice(-0.6, (0.1, 0.4), parse_poly("0.08*u2^2 - 0.04*u1^3"))


def _op(name, g, p):
    """The wave-function operator of one named observable in the gauge g."""
    return position_ops([name], g, p)[name]


def _grid(k=80, p=P):
    return Grid2.gauss_hermite(k, scale=math.sqrt(2.0) * p.magnetic_length)


def test_vacuum_normalised():
    res = inner_product(fock_state(SYM, P, 0, 0), fock_state(SYM, P, 0, 0),
                        _grid())
    assert abs(res - 1.0) < 1e-10


def test_states_orthogonal():
    res = inner_product(fock_state(SYM, P, 0, 0), fock_state(SYM, P, 1, 0),
                        _grid())
    assert abs(res) < 1e-10


def test_orthonormality_random_gauge():
    grid = _grid()
    labels = [(0, 0), (1, 0), (0, 1), (2, 2), (3, 1)]
    for a in labels:
        for b in labels:
            val = inner_product(fock_state(GEN, P, *a),
                                fock_state(GEN, P, *b), grid)
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-10


def test_energy_element_any_gauge():
    for g in (SYM, GEN, GaugeChoice(1.0)):
        grid = _grid()
        val = matrix_element(fock_state(g, P, 0, 0), _op("H", g, P),
                             fock_state(g, P, 0, 0), grid)
        assert abs(val - 0.5) < 1e-8


def test_rotation_element_vacuum_zero():
    grid = _grid()
    val = matrix_element(fock_state(GEN, P, 0, 0), _op("M3", GEN, P),
                         fock_state(GEN, P, 0, 0), grid)
    assert abs(val) < 1e-8


def test_translation_element_matches_closed_form():
    grid = _grid()
    val = matrix_element(fock_state(GEN, P, 1, 0), _op("T1", GEN, P),
                         fock_state(GEN, P, 0, 0), grid)
    assert abs(val - 1j * math.sqrt(0.5)) < 1e-8


def test_guiding_centre_elements_match_operator_matrices():
    from landaulab.fockspace import FockBasis, build_observable

    grid = _grid()
    basis = FockBasis(8)
    for name in ("xc1", "xc2"):
        op = _op(name, GEN, P)
        mat = build_observable(name, P, GEN.x0, basis)
        for bra, ket in (((1, 0), (0, 0)), ((2, 1), (2, 1)), ((0, 1), (1, 1))):
            val = matrix_element(fock_state(GEN, P, *bra), op,
                                 fock_state(GEN, P, *ket), grid)
            assert abs(val - mat.element(bra, ket)) < 1e-9


def test_basis_change_overlap_vs_closed_form():
    # quadrature is the oracle for the closed-form coefficients, lowest level
    grid = _grid()
    sig = 1.0
    for nplus in range(9):
        for t1 in (0.0, 0.8 * sig):
            ov = inner_product(fock_state(GEN, P, nplus, 0),
                               t1_state(GEN, P, t1, 0), grid)
            assert abs(ov - change_of_basis(nplus, t1, P)) < 1e-8


def test_level_phase_confirmed_by_quadrature():
    grid = _grid()
    for nminus in (1, 2, 3):
        ov = inner_product(fock_state(GEN, P, 1, nminus),
                           t1_state(GEN, P, 0.5, nminus), grid)
        assert abs(ov - t1_fock_overlap(1, nminus, 0.5, P)) < 1e-8
        # and the uncorrected coefficient is off by exactly the level phase
        assert abs(ov - (1j ** nminus) * change_of_basis(1, 0.5, P)) < 1e-8


def test_line_integral_gaussian():
    res = line_integral(lambda t: np.exp(-t * t), k=40)
    assert abs(res - math.sqrt(math.pi)) < 1e-12


def test_line_integral_orthonormality():
    for npl in range(11):
        for mpl in range(npl + 1):
            def f(t, a=npl, b=mpl):
                return np.array([change_of_basis(a, tt, P)
                                 * np.conj(change_of_basis(b, tt, P))
                                 for tt in np.atleast_1d(t)])
            val = line_integral(f, k=80, scale=1.0)
            assert abs(val - (1.0 if npl == mpl else 0.0)) < 1e-8


def test_reconstruction_from_translation_basis():
    # resolving the identity over the translation basis rebuilds the angular
    # wave functions pointwise
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1.5, 1.5, size=(20, 2))
    for (npl, nm) in ((0, 0), (2, 0), (1, 1), (2, 1)):
        psi = fock_state(SYM, P, npl, nm)
        for (x1, x2) in pts:
            def f(t):
                t = np.atleast_1d(t)
                return np.array([
                    t1_state(SYM, P, float(tt), nm).value(x1, x2)
                    * np.conj(t1_fock_overlap(npl, nm, float(tt), P))
                    for tt in t])
            rec = line_integral(f, k=70, scale=1.0)
            assert abs(rec - psi.value(x1, x2)) < 1e-7


def _unchecked_overlap(psi_a, psi_b, grid):
    """<a|b> on ``grid`` without the boundary-decay check, which a
    half-resolution rule need not pass."""
    u1, u2, w = grid.points
    row = np.conj(psi_a.jet(u1, u2, 0).f) * psi_b.jet(u1, u2, 0).f
    val, = _weighted_sums(row[None, :], w)
    return val


def _gh_half_gap(psi_a, psi_b, k, scale=math.sqrt(2.0)):
    """Absolute difference of <a|b> between the k-node Gauss-Hermite rule
    and the k//2-node one."""
    fine = Grid2.gauss_hermite(k, scale)
    half = Grid2.gauss_hermite(max(3, k // 2), scale)
    return abs(inner_product(psi_a, psi_b, fine)
               - _unchecked_overlap(psi_a, psi_b, half))


def _simpson_half_gap(psi_a, psi_b, n, extent):
    """The same gap between the n-interval Simpson rule and the one with
    about half as many (even) intervals."""
    fine = Grid2.simpson(n, extent)
    half = Grid2.simpson(max(2, n // 2 + (n // 2) % 2), extent)
    return abs(inner_product(psi_a, psi_b, fine)
               - _unchecked_overlap(psi_a, psi_b, half))


def test_refinement_convergence():
    # genuinely unconverged integrands must gain at least 10x per doubling;
    # converged ones sit at the round-off floor.  A cross-gauge overlap keeps
    # an oscillatory phase in the integrand.
    psi_a = fock_state(SYM, P, 0, 0)
    psi_b = t1_state(SYM, P, 4.0, 0)
    for k in (40, 48):
        e1 = _gh_half_gap(psi_a, psi_b, k)
        e2 = _gh_half_gap(psi_a, psi_b, 2 * k)
        assert e2 <= e1 / 10.0 or (e1 < 1e-13 and e2 < 1e-13)
    psi = fock_state(GEN, P, 2, 1)
    for n in (32, 64):
        e1 = _simpson_half_gap(psi, psi, n, 9.0)
        e2 = _simpson_half_gap(psi, psi, 2 * n, 9.0)
        assert e2 <= e1 / 10.0 or (e1 < 1e-13 and e2 < 1e-13)


def test_deterministic_bit_identical():
    val1 = inner_product(fock_state(GEN, P, 2, 1), fock_state(GEN, P, 2, 1),
                         _grid())
    val2 = inner_product(fock_state(GEN, P, 2, 1), fock_state(GEN, P, 2, 1),
                         _grid())
    assert val1 == val2


def test_schemes_cross_check():
    # the two rules agree within the sum of their half-resolution gaps
    psi = fock_state(GEN, P, 1, 1)
    gh = inner_product(psi, psi, _grid())
    simpson = inner_product(psi, psi, Grid2.simpson(192, extent=10.0))
    assert abs(gh - simpson) <= _gh_half_gap(psi, psi, 80, math.sqrt(2.0)) \
        + _simpson_half_gap(psi, psi, 192, 10.0) + 1e-12


def test_support_overflow_plane_wave():
    with pytest.raises(SupportOverflowError):
        inner_product(plane_wave((1.0, 0.0), 1.0), plane_wave((1.0, 0.0), 1.0),
                      _grid())


def test_support_overflow_displaced_state():
    far = _off_centre(fock_state(SYM, P, 0, 0), 30.0)
    with pytest.raises(SupportOverflowError):
        inner_product(far, far, _grid(k=24))


def test_line_integral_support_check():
    with pytest.raises(SupportOverflowError):
        line_integral(lambda t: np.ones_like(t), k=20)


def test_one_support_check_for_1d_and_2d():
    # both rules report a failure in the same words: a flat integrand of
    # magnitude 1 fails on the two endpoints and on the outer ring alike
    message = ("integrand boundary magnitude 1.000e+00 exceeds 1e-12 of "
               "peak 1.000e+00; enlarge the grid")
    with pytest.raises(SupportOverflowError) as one_d:
        line_integral(lambda t: np.ones_like(t), k=20)
    with pytest.raises(SupportOverflowError) as two_d:
        inner_product(plane_wave((1.0, 0.0), 1.0),
                      plane_wave((1.0, 0.0), 1.0), _grid())
    assert str(one_d.value) == str(two_d.value) == message
    # the endpoint alone decides: one endpoint just above the ratio fails,
    # just at it passes
    for edge, fails in ((2e-12, True), (1e-12, False)):
        def f(t, edge=edge):
            vals = np.exp(-t * t)
            vals[-1] = edge * vals.max()
            return vals
        if fails:
            with pytest.raises(SupportOverflowError):
                line_integral(f, k=20)
        else:
            line_integral(f, k=20)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2.gauss_hermite(2)
    with pytest.raises(ValueError):
        Grid2.simpson(5, extent=1.0)


def test_rules_stop_at_the_largest_size_numpy_builds():
    # from 371 nodes on numpy's hermgauss returns zero or non-finite
    # weights; the 370-node rule is built without a warning, its weights
    # positive and finite, and any larger rule is refused before it is
    # built, the Simpson rule's interval count included
    assert quad.MAX_AXIS_SIZE == 370
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, wt = quad._hermite_rule.__wrapped__(370)
        grid = Grid2.gauss_hermite(370, scale=1.3)
    assert t.size == 370
    for w in (wt, grid.axis_weights, quad.Grid1(370).weights,
              Grid2.simpson(370).axis_weights):
        assert np.all(np.isfinite(w)) and np.all(w > 0)
    for build in (lambda: Grid2.gauss_hermite(371), lambda: quad.Grid1(371),
                  lambda: quad.Grid1(10 ** 21), lambda: Grid2.simpson(372)):
        with pytest.raises(ValueError, match="largest rule size 370"):
            build()


def _correctly_rounded_sum(row) -> float:
    """``math.fsum`` where it returns.  With inf or nan: nan for a nan or
    for +inf with -inf, else the infinity.  A finite row on which a partial
    sum of ``math.fsum`` overflows: its exact rational sum rounded once, an
    infinity only when that overflows."""
    values = row.tolist()
    special = [v for v in values if not math.isfinite(v)]
    if special:
        if any(map(math.isnan, special)) or len(set(special)) > 1:
            return math.nan
        return special[0]
    try:
        return math.fsum(values)
    except OverflowError:
        total = sum(map(Fraction, values))
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


@st.composite
def _float_rows(draw):
    """A few rows of one length from 0 to 5000, with exponents drawn from
    a window of the double range, up to all of it (subnormals included),
    optionally made to cancel exactly or salted with inf, nan and huge
    values."""
    n = draw(st.integers(0, 5000))
    nrows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.integers(-1080, 1024))
    hi = draw(st.integers(lo, 1024))
    rows = np.ldexp(rng.uniform(-1.0, 1.0, (nrows, n)),
                    rng.integers(lo, hi + 1, (nrows, n)))
    kind = draw(st.sampled_from(["plain", "cancel", "special"]))
    if kind == "cancel" and n >= 2:
        half = n // 2
        rows[:, half:2 * half] = -rows[:, rng.permutation(half)]
    elif kind == "special" and n:
        specials = [math.inf, -math.inf, math.nan, 2.0 ** 1000, -1e308]
        for _ in range(draw(st.integers(1, 3))):
            rows[rng.integers(nrows), rng.integers(n)] = \
                specials[rng.integers(len(specials))]
    return rows


@settings(max_examples=150, deadline=None)
@given(_float_rows())
@example(np.array([[2.0 ** 53, 1.0, 2.0 ** -60]]))
@example(np.array([[2.0 ** 53, 1.0, -5e-324]]))
@example(np.array([[2.0 ** 53, 1.0, 2.0 ** -60], [-0.0, -0.0, 0.0]]))
@example(np.array([[1e308, 1e308, -1e308], [math.inf, -math.inf, 1.0]]))
@example(np.array([[1e308, 1e308, 1e308], [-1e308, -1e308, 5e-324],
                   [2.0 ** 1000, 5e-324, -(2.0 ** 1000)],
                   [math.inf, 1e308, 1e308], [math.nan, math.inf, 1.0]]))
@example(np.zeros((2, 0)))
def test_fsum_rows_equals_fsum_bit_for_bit(rows):
    # every row's correctly rounded sum, which is math.fsum's wherever
    # math.fsum returns one; the rows math.fsum raises on give the IEEE
    # result or the exact sum instead of an exception
    expected = [_correctly_rounded_sum(row) for row in rows]
    got = _fsum_rows(rows)
    assert [math.isnan(v) for v in got] == [math.isnan(v) for v in expected]
    assert [struct.pack("<d", v) for v in got if not math.isnan(v)] \
        == [struct.pack("<d", v) for v in expected if not math.isnan(v)]


def _real_bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


@st.composite
def _windowed_block(draw):
    """Rows that fit in one block of the reducer, each with its own window
    of exponents, from subnormals to just below the extraction limit: the
    windows may overlap, nest or lie far apart, and a row may cancel."""
    nrows = draw(st.integers(1, 6))
    n = draw(st.integers(1, quad._BLOCK_VALUES // nrows))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = np.empty((nrows, n))
    for r in range(nrows):
        lo = draw(st.integers(-1080, 895))
        hi = draw(st.integers(lo, min(lo + 120, 895)))
        rows[r] = np.ldexp(rng.uniform(-1.0, 1.0, n),
                           rng.integers(lo, hi + 1, n))
        if draw(st.booleans()) and n >= 2:
            half = n // 2
            rows[r, half:2 * half] = -rows[r, rng.permutation(half)]
    return rows


@settings(max_examples=100, deadline=None)
@given(_windowed_block())
@example(np.array([[2.0 ** 899, -(2.0 ** 880), 3.0],
                   [5e-324, -(2.0 ** -1060), 2.0 ** -1070]]))
@example(np.array([[1.0, 2.0 ** -52, -(2.0 ** -104)],
                   [0.0, -0.0, 0.0],
                   [-(2.0 ** 700), 2.0 ** 650, 2.0 ** 600]]))
def test_fsum_rows_one_block_of_disjoint_windows(rows):
    # one extraction constant serves every row of the block, however far
    # apart the rows' magnitudes lie
    assert rows.size <= quad._BLOCK_VALUES
    assert _real_bits(_fsum_rows(rows)) \
        == _real_bits(math.fsum(row.tolist()) for row in rows)


@pytest.mark.parametrize("k", range(2, 17))
@pytest.mark.parametrize("offset", [-3, -2])
def test_fsum_rows_at_the_lengths_where_the_level_width_changes(k, offset):
    # n = 2**k - 3 is the longest row for its level width, n = 2**k - 2 the
    # shortest for the next; rows of the largest double below 2**e hold
    # each level's partial sums at their exactness bound
    n = 2 ** k + offset
    rng = np.random.default_rng(k)
    below_one = math.nextafter(1.0, 0.0)
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    rows = np.stack([
        np.full(n, below_one),
        np.full(n, -below_one) * (1.0 - np.ldexp(rng.uniform(0, 1, n), -40)),
        signs * np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-300, 1, n)),
        np.where(np.arange(n) % 3, below_one, np.ldexp(signs, -1000)),
    ])
    assert _real_bits(_fsum_rows(rows)) \
        == _real_bits(math.fsum(row.tolist()) for row in rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3000),
       st.integers(-1050, 800), st.integers(-1050, 800))
@example(7, 3136, 790, -1040)
@example(8, 5, -1040, 0)
def test_weighted_sums_real_and_imaginary_parts_in_different_windows(
        seed, n, re_exp, im_exp):
    rng = np.random.default_rng(seed)
    rows = max(1, min(6, quad._BLOCK_VALUES // n))
    vals = (np.ldexp(rng.normal(size=(rows, n)),
                     re_exp + rng.integers(0, 40, (rows, n)))
            + 1j * np.ldexp(rng.normal(size=(rows, n)),
                            im_exp + rng.integers(0, 40, (rows, n))))
    w = rng.uniform(0.0, 1.0, n)
    assert _bits(_weighted_sums(vals, w)) == _bits(_fsum_products(vals, w))


class _FsumLengths:
    """Stands in for the ``math`` module and records the length of every
    ``fsum`` argument."""

    def __init__(self):
        self.lengths = []

    def fsum(self, values):
        values = list(values)
        self.lengths.append(len(values))
        return math.fsum(values)

    def __getattr__(self, name):
        return getattr(math, name)


def test_level_count_is_fixed_by_the_block_range(monkeypatch):
    # the 20 x 3136 decaying block: the real and the imaginary products
    # both have their largest magnitude below 2**0 and their last bit at
    # 2**-172, and 3138 values per row give M = 12, so 40 bits a level:
    # ceil(172 / 40) = 5 levels, the sum of each row then taken over 5
    # level sums
    grid = Grid2.gauss_hermite(56, scale=math.sqrt(2.0))
    x1, x2, w = grid.points
    vals = _decaying_rows(np.random.default_rng(7), 20, x1, x2)
    prod = vals * w
    for part in (prod.real, prod.imag):
        mags = np.abs(part)
        top = math.frexp(mags.max())[1]
        last = math.frexp(mags[mags > 0].min())[1] - 53
        step = 52 - (3136 + 2).bit_length()
        assert (top, last, step) in ((0, -172, 40), (-1, -172, 40))
        assert -(-(top - last) // step) == 5
    recorder = _FsumLengths()
    monkeypatch.setattr(quad, "math", recorder)
    result = integrate_rows(vals, grid)
    assert recorder.lengths == [5] * 40
    assert _bits(result) == _bits(_fsum_products(vals, w))


def _rephased(psi):
    """``psi`` times a plane wave: the same decay under another phase."""
    return wv.phase_shifted(psi, Poly2.monomial(1, 0, 0.3), 1.0)


def _certified_rule(p, k):
    """The exact k-node rule an engine certifies on."""
    return Grid2.gauss_hermite(k, math.sqrt(2.0) * p.magnetic_length,
                               exact=True)


_CUBIC = GaugeChoice(-0.6, (0.1, 0.4),
                     parse_poly("0.08*u2^2 - 0.04*u1^3 + 0.03*u1*u2^2"))


@pytest.mark.parametrize("scheme, k, g", [
    ("gauss_hermite", 40, _CUBIC), ("simpson", 64, _CUBIC),
    # zero phase polynomial: value and jet share the real exponential
    ("gauss_hermite", 40, SYM),
], ids=["gauss_hermite-40", "simpson-64", "symmetric-gauss_hermite-40"])
def test_engine_elements_equal_matrix_element(scheme, k, g):
    # the angular states of one gauge certify each other; a re-phased state
    # carries another phase, so a batch holding its rows runs wholly on the
    # --grid rule, and a batch of the certified requests alone on the
    # certified rule.  Each value has the bits of matrix_element (or
    # inner_product) on the rule its batch ran on
    grid = _default_grid(P, k, scheme)
    labels = [(0, 0), (1, 0), (-1, 1), (2, 1), "rephased"]
    psi = {lab: fock_state(g, P, lab[1] + lab[0], lab[1])
           for lab in labels[:-1]}
    psi["rephased"] = _rephased(psi[(1, 0)])
    eng = _ElementEngine(P, g, k, scheme)
    for lab in labels:
        eng.load(lab, psi.get, lab)
    ops = [_op(name, g, P)
           for name in _SCAN_OPS + tuple(CANONICAL_PARTNER)] + [None]
    requests = {(i, a, b): (a, op, b)
                for i, op in enumerate(ops) for a in labels for b in labels}
    certifiable = {key: r for key, r in requests.items()
                   if "rephased" not in r}
    # a second key for every request of the first operator: each key is
    # integrated once, and both keys of a request read the same bits
    twins = {("twin", a, b): (a, ops[0], b) for a in labels for b in labels}
    rows, rules = [], []

    def counted(values, grid):
        rules.append(grid)
        rows.append(integrate_rows(values, grid))
        return rows[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "integrate_rows", counted)
        values = eng.elements({**requests, **twins})
        assert eng.certified_k is None
        alone = eng.elements(certifiable)
    assert list(values) == [*requests, *twins]
    assert list(alone) == list(certifiable)
    assert list(map(len, rows)) == [len(requests) + len(twins),
                                    len(certifiable)]
    certified = eng.certified_k
    assert (certified is None) == (scheme == "simpson")
    assert [rule.exact for rule in rules] == [False, bool(certified)]
    exact = certified and _certified_rule(P, certified)
    for got, batch, on in ((values, requests, grid),
                           (alone, certifiable, exact or grid)):
        for key, (a, op, b) in batch.items():
            ref = (inner_product(psi[a], psi[b], on) if op is None
                   else matrix_element(psi[a], op, psi[b], on))
            assert _bits([got[key]]) == _bits([ref]), key
    for (_, a, b) in twins:
        assert _bits([values["twin", a, b]]) == _bits([values[0, a, b]])


def _table_engine():
    return _ElementEngine(P, SYM, 56, "gauss_hermite")


_LEVEL_OPS = position_ops(("p1", "p2", "L3"), SYM, P)


def test_level_rows_build_each_state_once(monkeypatch):
    # the engine caches jets by key, so a state shared by several rows is
    # built once: 14 translation and 14 angular states at the table sizes,
    # and no angular state when the engine holds the angular table's
    builds = {"t1_state": [], "fock_state": []}
    for name, calls in builds.items():
        def counted(*args, fn=getattr(wv, name), calls=calls):
            calls.append(args[2:])
            return fn(*args)
        monkeypatch.setattr(wv, name, counted)
    rows = []
    _t1_level_rows(P, SYM, _table_engine(), _LEVEL_OPS, rows,
                   TABLE_INDEX_TOP)
    assert rows
    for calls in builds.values():
        assert len(calls) == len(set(calls)) == 14
    eng = _table_engine()
    for (l, n) in _angular_states(TABLE_INDEX_TOP):
        eng.load((l, n), fock_state, SYM, P, n + l, n)
    builds["fock_state"].clear()
    again = []
    _t1_level_rows(P, SYM, eng, _LEVEL_OPS, again, TABLE_INDEX_TOP)
    assert builds["fock_state"] == [] and again == rows


def test_level_rows_request_each_overlap_once(monkeypatch):
    # level pairs sharing n2 share their overlap row: 28 distinct overlaps
    # and 120 operator rows, where one overlap per case would make 172
    requests = []
    elements = _ElementEngine.elements

    def recorded(self, reqs):
        requests.extend(reqs.values())
        return elements(self, reqs)
    monkeypatch.setattr(_ElementEngine, "elements", recorded)
    _t1_level_rows(P, SYM, _table_engine(), _LEVEL_OPS, [],
                   TABLE_INDEX_TOP)
    overlaps = [(bra, ket) for bra, op, ket in requests if op is None]
    assert len(requests) == 148
    assert len(overlaps) == len(set(overlaps)) == 28


_DEMO_STATES = ((0, 0), (1, 0), (0, 1), (2, 1))
_DEMO_LAMBDAS = (parse_poly("0.5*u1*u2"), parse_poly("0.3*u1^2 - 0.7*u2"),
                 parse_poly("0.1*u1^3 + 0.4*u2^2 - 0.2*u1"))


def _demo_reference(p, grids):
    """heisenberg-demo's 5 elements in the plain representation and in each
    of the three dressed ones, one ``matrix_element`` call each, on one
    rule for all or on one rule per representation."""
    hb = p.hbar
    zero = Poly2.zero()
    plain = {k: fock_state(SYM, p, *k) for k in _DEMO_STATES}
    if isinstance(grids, Grid2):
        grids = [grids] * (1 + len(_DEMO_LAMBDAS))
    out = []
    for lam, grid in zip((None, *_DEMO_LAMBDAS), grids):
        v = (zero, zero) if lam is None else (lam.diff(1), lam.diff(2))
        psi = plain if lam is None else {
            k: wv.phase_shifted(s, lam, hb) for k, s in plain.items()}
        # -i hbar d_i + v_i and u1, written out
        mih = Poly2.const(complex(0.0, -hb))
        p1, p2 = wv.DiffOpSpec(c=v[0], b1=mih), wv.DiffOpSpec(c=v[1], b2=mih)
        x1 = wv.DiffOpSpec(c=Poly2.variable(1))
        ops = [(p1, (0, 0), (1, 0)), (p2, (0, 0), (0, 1)),
               (p1.compose(p1) + p2.compose(p2), (1, 0), (1, 0)),
               (x1.compose(p1), (1, 0), (2, 1)), (p2, (2, 1), (0, 1))]
        out.append([matrix_element(psi[bra], op, psi[ket], grid)
                    for op, bra, ket in ops])
    return out


@pytest.mark.parametrize("p,scheme,k", [
    (P, "gauss_hermite", 80),
    (PhysicalParams(1.3, -1.0, 0.7, hbar=0.6), "gauss_hermite", 64),
    (PhysicalParams(0.7, 1.1, 1.3, hbar=1.6), "simpson", 120),
])
def test_heisenberg_demo_evaluates_each_state_once(monkeypatch, p, scheme, k):
    # one element-engine batch per representation, which jets each of its
    # 4 states once, to the highest order of the operators applied to it:
    # (0, 0) is only ever a bra, so order 0; (1, 0) is the ket of
    # p1^2 + p2^2, so order 2; (0, 1) and (2, 1) are kets of first-order
    # operators only.  Over the plain and the three dressed sets that is
    # 4 jets of order 0, 8 of order 1 and 4 of order 2, and no call to
    # value.  Each of the 20 elements keeps the bits of its own
    # matrix_element call on the rule of its batch, the certified 4-node
    # rule under Gauss-Hermite, and each report deviation those of the
    # reference
    orders, valued = [], []
    jet, value = wv.WaveForm.jet, wv.WaveForm.value

    def jetted(self, x1, x2, order=2):
        orders.append(order)
        return jet(self, x1, x2, order)

    def counted(self, *args):
        valued.append(self)
        return value(self, *args)
    monkeypatch.setattr(wv.WaveForm, "jet", jetted)
    monkeypatch.setattr(wv.WaveForm, "value", counted)
    elements, rules = [], []

    def recorded(values, grid):
        rules.append(grid)
        elements.append(integrate_rows(values, grid))
        return elements[-1]
    monkeypatch.setattr(quad, "integrate_rows", recorded)
    rep = run_heisenberg_demo(p, grid_k=k, scheme=scheme)
    monkeypatch.undo()
    assert not valued
    assert Counter(orders) == {0: 4, 1: 8, 2: 4}

    if scheme == "simpson":
        assert rep.settings["certified_k"] is None
        assert not any(rule.exact for rule in rules)
        ref = _demo_reference(p, _default_grid(p, k, scheme))
    else:
        assert rep.settings["certified_k"] == 4
        assert all(rule.exact and rule.weights.size == 16 for rule in rules)
        ref = _demo_reference(p, rules)
    assert [_bits(got) for got in elements] == [_bits(want) for want in ref]
    devs = [max(abs(z - z0) for z, z0 in zip(row, ref[0])) for row in ref[1:]]
    assert [c.deviation for c in rep.checks] == devs


@pytest.mark.parametrize("k", [3, 4])
def test_heisenberg_demo_support_failure_matches_per_element_path(k):
    # the demo's batches are certified on 4 nodes per axis, so on a --grid
    # of 3 or 4 they run on it under the boundary-decay check, which a
    # plain element fails first.  (Under Simpson's rule no element fails
    # it: the rule spans 13 magnetic lengths whatever its node count.)
    with pytest.raises(SupportOverflowError) as per_element:
        _demo_reference(P, _default_grid(P, k, "gauss_hermite"))
    with pytest.raises(SupportOverflowError) as batched:
        run_heisenberg_demo(P, grid_k=k)
    assert str(batched.value) == str(per_element.value)


def test_engine_support_failure_matches_per_element_path():
    # re-phased kets carry another phase than the bras, so the batch holding
    # their rows runs wholly on the --grid rule under the boundary-decay
    # check, in key order: on 20 nodes per axis the vacuum element passes,
    # and the batch fails where the first of its requests, taken one
    # matrix_element call at a time, fails
    grid = _grid(k=20)
    labels = [(0, 0), (1, 0), (2, 1)]
    psi = {lab: fock_state(SYM, P, *lab) for lab in labels}
    psi.update({("rephased", lab): _rephased(psi[lab]) for lab in labels})
    op = _op("H", SYM, P)
    requests = {(a, b): (a, op, b) for a in labels
                for b in (*labels, *(("rephased", lab) for lab in labels))}
    matrix_element(psi[(0, 0)], op, psi[(0, 0)], grid)
    with pytest.raises(SupportOverflowError):
        matrix_element(psi[(2, 1)], op, psi[(2, 1)], grid)
    with pytest.raises(SupportOverflowError) as per_element:
        for a, b in requests:
            matrix_element(psi[a], op, psi[b], grid)
    eng = _ElementEngine(P, SYM, 20, "gauss_hermite")
    for lab in psi:
        eng.load(lab, psi.get, lab)
    with pytest.raises(SupportOverflowError) as batched:
        eng.elements(requests)
    assert str(batched.value) == str(per_element.value)


# ---------------------------------------------------------------------------
# The degree certificate
# ---------------------------------------------------------------------------


def _on_rule(forms, requests, rule):
    """Each request ``(bra, op, ket)`` over ``forms`` integrated on ``rule``
    from jets taken on its nodes, through the operators' own ``apply_jet``."""
    u = rule.points[:2]
    jets = {key: form.jet(*u) for key, form in forms.items()}
    return integrate_rows((
        np.conj(jets[bra].f) * (jets[ket].f if op is None
                                else op.apply_jet(jets[ket], u))
        for bra, op, ket in requests.values()), rule)


def _scan_batch(p, g, levels=2):
    """The scan's states and requests of one gauge, overlaps included."""
    states = {lab: fock_state(g, p, lab[1] + lab[0], lab[1])
              for lab in _angular_states(levels)}
    ops = {name: _op(name, g, p)
           for name in _SCAN_OPS + tuple(CANONICAL_PARTNER)}
    ops["overlap"] = None
    requests = {(name, pair): (pair[0], op, pair[1])
                for pair in _neighbour_pairs(list(states))
                for name, op in ops.items()}
    return states, requests


_UNIT = st.floats(0.5, 2.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), gi=st.integers(0, 6),
       m=_UNIT, q=_UNIT, b=_UNIT, hbar=_UNIT, flip=st.booleans(),
       x0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
@example(seed=11, gi=6, m=2.0, q=1.0, b=0.7, hbar=1.3, flip=True,
         x0=(0.4, -0.3))
def test_certified_values_match_the_80_node_rule(seed, gi, m, q, b, hbar,
                                                 flip, x0):
    # every scan request of a default gauge, for variant parameters of both
    # orientations about an off-origin x0, is certified, and its value on
    # the certified rule is the 80-node rule's to 1e-13 relative
    p = PhysicalParams(m, -q if flip else q, b, hbar)
    g = default_gauges(seed, x0)[gi]
    states, requests = _scan_batch(p, g)
    eng = _ElementEngine(p, g, 80, "gauss_hermite")
    for lab, psi in states.items():
        eng.load(lab, lambda s=psi: s)
    rules = []

    def recorded(rows, rule):
        rules.append(rule)
        return integrate_rows(rows, rule)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "integrate_rows", recorded)
        got = eng.elements(requests)
    assert [rule.exact for rule in rules] == [True]
    assert rules[0].axis.size == eng.certified_k < 80
    ref = _on_rule(states, requests, _default_grid(p, 80, "gauss_hermite"))
    for key, want in zip(requests, ref):
        assert abs(got[key] - want) <= 1e-13 * max(1.0, abs(want)), key


def _special_poly(sf) -> Poly2:
    """A special factor as a polynomial in u, by its recurrence."""
    x, prev, cur = sf.arg, Poly2.zero(), Poly2.const(1.0)
    for k in range(sf.n):
        if sf.kind == "hermite":
            prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
        else:
            prev, cur = cur, (1.0 / (k + 1)) * (
                (2 * k + sf.m + 1) * cur - x * cur - (k + sf.m) * prev)
    return cur


def _integrand_degree(bra, op, ket) -> int:
    """Total degree of conj(bra) * (op ket) divided by its exponential,
    expanded exactly: each jet slot of a form is a polynomial times exp(R),
    and a derivative maps P to P' + P R'."""
    def slots(form):
        poly = form.poly
        if form.special is not None:
            poly = poly * _special_poly(form.special)
        r = form.exponent

        def d(q, axis):
            return q.diff(axis) + q * r.diff(axis)
        p1, p2 = d(poly, 1), d(poly, 2)
        return [poly, p1, p2, d(p1, 1), d(p1, 2), d(p2, 2)]
    coeffs = ([Poly2.const(1.0)] if op is None else
              [op.c, op.b1, op.b2, op.a11, op.a12, op.a22])
    applied = Poly2.zero()
    for c, s in zip(coeffs, slots(ket)):
        applied = applied + c * s
    conj = Poly2({key: complex(c).conjugate()
                  for key, c in slots(bra)[0].terms.items()})
    return (conj * applied).degree


def _certifiable(p, x0, bra, ket) -> bool:
    """Whether conj(bra) * ket is a polynomial times the weight of the
    Gauss-Hermite rule about x0 at scale sqrt(2) l_B."""
    total = (bra.gauss + ket.gauss).terms
    weight = 1.0 / (2.0 * p.magnetic_length ** 2)
    return (bra.phase == ket.phase and bra.origin == ket.origin == x0
            and total.keys() == {(2, 0), (0, 2)}
            and all(math.isclose(c, weight, rel_tol=1e-12)
                    for c in total.values()))


_VARIANT = PhysicalParams(2.0, -1.0, 0.7, hbar=1.3)


@pytest.mark.parametrize("campaign", [
    lambda: run_gauge_scan(_VARIANT, default_gauges(11, (0.4, -0.3)),
                           nmax=8, grid_k=80, levels=2),
    lambda: run_reproduce_tables(P, nmax=8, grid_k=56, gauge=_CUBIC,
                                 idx_top=3),
    lambda: run_heisenberg_demo(_VARIANT),
], ids=["gauge-scan", "reproduce-tables", "heisenberg-demo"])
def test_no_certified_batch_runs_below_its_degree(monkeypatch, campaign):
    # every batch's certifiable requests, and only those, run on one exact
    # rule of k nodes, and 2k - 1 covers the degree of each of their
    # integrands, expanded exactly; the others run on the --grid rule
    batches = []
    elements = _ElementEngine.elements

    def recorded(self, requests):
        rules = []

        def counted(rows, rule):
            rows = list(rows)
            rules.append((rule, len(rows)))
            return integrate_rows(rows, rule)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quad, "integrate_rows", counted)
            out = elements(self, requests)
        batches.append((self, requests, rules))
        return out
    monkeypatch.setattr(_ElementEngine, "elements", recorded)
    campaign()
    assert any(rule.exact for _, _, rules in batches for rule, _ in rules)
    for eng, requests, rules in batches:
        forms = eng._forms
        certifiable = [(forms[bra], op, forms[ket])
                       for bra, op, ket in requests.values()
                       if _certifiable(eng.p, eng.x0, forms[bra], forms[ket])]
        exact = [(rule, n) for rule, n in rules if rule.exact]
        assert [n for rule, n in rules if not rule.exact] in (
            [], [len(requests) - len(certifiable)])
        if not exact:
            continue
        [(rule, n)] = exact
        assert n == len(certifiable)
        k = rule.axis.size
        assert max(_integrand_degree(*r) for r in certifiable) <= 2 * k - 1
        assert k <= eng.certified_k


@pytest.mark.parametrize("campaign, line_streams", [
    (lambda: run_gauge_scan(P, nmax=8, grid_k=40, levels=2), 0),
    (lambda: run_reproduce_tables(P, nmax=8, grid_k=56, gauge=_CUBIC,
                                  idx_top=3), 0),
    (lambda: run_basis_change(P, grid_k=64), 2),
    (lambda: run_heisenberg_demo(P, grid_k=48), 0),
], ids=["gauge-scan", "reproduce-tables", "basis-change", "heisenberg-demo"])
def test_every_plane_integral_is_one_engine_batch(monkeypatch, campaign,
                                                  line_streams):
    # the element engine forms every plane-integral row of the campaigns:
    # each Grid2 stream is one engine batch, and each batch one stream.
    # Only basis-change integrates on the line, in two streams
    streams, batches = [], []
    elements = _ElementEngine.elements

    def recorded(rows, rule):
        streams.append(type(rule))
        return integrate_rows(rows, rule)

    def batch(self, requests):
        start = len(streams)
        out = elements(self, requests)
        batches.append(streams[start:])
        del streams[start:]
        return out
    monkeypatch.setattr(quad, "integrate_rows", recorded)
    monkeypatch.setattr(_ElementEngine, "elements", batch)
    campaign()
    assert batches and all(b == [Grid2] for b in batches)
    assert streams == [quad.Grid1] * line_streams


def test_reproduce_tables_values_translation_states(monkeypatch):
    # a translation state is only ever a bra of the tables, which no
    # operator is applied to: the engine jets it at order 0 only
    made, jetted = [], []
    t1_form, jet = wv.t1_state, wv.WaveForm.jet

    def made_t1(*args):
        made.append(t1_form(*args))
        return made[-1]

    def recorded(self, x1, x2, order=2):
        jetted.append((self, order))  # kept, so no two forms share an id
        return jet(self, x1, x2, order)
    monkeypatch.setattr(wv, "t1_state", made_t1)
    monkeypatch.setattr(wv.WaveForm, "jet", recorded)
    run_reproduce_tables(P, nmax=8, grid_k=56, gauge=_CUBIC, idx_top=3)
    ids = {id(form) for form in made}
    orders = [order for form, order in jetted if id(form) in ids]
    assert made and orders and set(orders) == {0}


def _off_centre(psi, d=0.5):
    """``psi`` with its Gaussian centred ``d`` lengths along u1 off u = 0."""
    c = psi.gauss.terms[(2, 0)]
    return replace(psi, gauss=Poly2({(2, 0): c, (0, 2): c, (1, 0): -2 * d * c,
                                     (0, 0): d * d * c}))


@pytest.mark.parametrize("bra, op, ket, scheme", [
    (t1_state(SYM, P, 0.3, 1), _op("p1", SYM, P),
     fock_state(SYM, P, 1, 1), "gauss_hermite"),
    (fock_state(SYM, P, 0, 0), None, plane_wave((0.5, 0.0), 1.0),
     "gauss_hermite"),
    (fock_state(SYM, P, 1, 0), None, fock_state(GaugeChoice(1.0), P, 1, 0),
     "gauss_hermite"),
    (fock_state(SYM, P, 1, 0), _op("x1", SYM, P),
     _off_centre(fock_state(SYM, P, 0, 0)), "gauss_hermite"),
    (fock_state(SYM, P, 1, 0), _op("H", SYM, P),
     fock_state(SYM, P, 1, 0), "simpson"),
], ids=["t1-bra", "plane-wave", "phases", "off-centre", "simpson"])
def test_uncertified_requests_run_on_the_grid_rule(bra, op, ket, scheme):
    # each request runs alone on the 56-node --grid rule, under the
    # boundary-decay check, with the bits of matrix_element there
    grid = _default_grid(P, 56, scheme)
    eng = _ElementEngine(P, SYM, 56, scheme)
    eng.load("bra", lambda: bra)
    eng.load("ket", lambda: ket)
    rules = []

    def recorded(rows, rule):
        rules.append(rule)
        return integrate_rows(rows, rule)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "integrate_rows", recorded)
        got = eng.elements({0: ("bra", op, "ket")})[0]
    assert [(rule.exact, rule.weights.size) for rule in rules] \
        == [(False, grid.weights.size)]
    assert eng.certified_k is None
    want = (inner_product(bra, ket, grid) if op is None
            else matrix_element(bra, op, ket, grid))
    assert _bits([got]) == _bits([want])


def test_one_origin_per_engine_and_per_reference():
    # the rule's nodes are the states' shifted coordinates, so every state
    # an engine loads, and both states of a reference call, share one origin
    off = fock_state(GEN, P, 1, 0)
    eng = _ElementEngine(P, SYM, 56, "gauss_hermite")
    eng.load("psi", fock_state, SYM, P, 1, 0)
    with pytest.raises(OriginMismatchError):
        eng.load("off", lambda: off)
    assert list(eng._forms) == ["psi"]
    psi = fock_state(SYM, P, 1, 0)
    with pytest.raises(OriginMismatchError):
        inner_product(psi, off, _grid())
    with pytest.raises(OriginMismatchError):
        matrix_element(off, _op("H", SYM, P), psi, _grid())


def test_grid_bounds_the_certified_rule():
    # <n+=2, n-=1|H|n+=2, n-=1> = 3/2 has degree 3 + 3 + 2 = 8 and needs 5
    # nodes: below --grid 6 it is certified on them; at --grid 5 it runs on
    # the --grid rule itself, under the boundary-decay check, which it
    # fails there
    psi = fock_state(SYM, P, 2, 1)
    request = {0: ("psi", _op("H", SYM, P), "psi")}
    for grid_k, certified in ((6, 5), (5, None)):
        eng = _ElementEngine(P, SYM, grid_k, "gauss_hermite")
        eng.load("psi", lambda: psi)
        if certified is None:
            with pytest.raises(SupportOverflowError):
                eng.elements(request)
        else:
            value = eng.elements(request)[0]
            assert abs(value - 1.5) < 1e-13
        assert eng.certified_k == certified


def _bits(values) -> list[bytes]:
    return [struct.pack("<dd", v.real, v.imag) for v in values]


def _fsum_products(values, weights) -> list[complex]:
    prod = values * weights
    return [complex(math.fsum(r.real.tolist()), math.fsum(r.imag.tolist()))
            for r in prod]


def _decaying_rows(rng, rows, *axes):
    """Complex rows on the nodes of a rule with outermost nodes ``axes``,
    under an envelope falling to exp(-40) at the outermost nodes, with exact
    zeros of both signs: the boundary check passes on any node count and
    signed zeros are read."""
    r2 = sum((x / np.abs(x).max()) ** 2 for x in axes)
    vals = np.exp(-40.0 * r2) * (rng.normal(size=(rows, r2.size))
                                 + 1j * rng.normal(size=(rows, r2.size)))
    vals[:, ::7] = -0.0
    vals[:, 3::11] = 0.0
    return vals


def test_reductions_reuse_no_state_across_shapes():
    # interleaved row lengths (small after large) through every entry point
    # give the bits of math.fsum over the products and leave the argument
    # as it was: the reused work buffers carry nothing from call to call
    rng = np.random.default_rng(5)
    for k, rows in ((80, 3), (3, 1), (56, 20), (4, 700), (80, 11), (9, 2),
                    (300, 1), (40, 1)):
        grid = Grid2.gauss_hermite(k, scale=math.sqrt(2.0))
        x1, x2, w = grid.points
        vals = _decaying_rows(rng, rows, x1, x2)
        kept = vals.copy()
        expected = _fsum_products(vals, w)
        assert _bits(integrate_rows(vals, grid)) == _bits(expected)
        assert _bits(_weighted_sums(vals, w)) == _bits(expected)
        assert vals.tobytes() == kept.tobytes()

        t, wt = _axis_gauss_hermite(k, 1.3)
        line = _decaying_rows(rng, 1, t)[0]
        kept = line.copy()
        assert _bits([line_integral(lambda _: line, k=k, scale=1.3)]) \
            == _bits(_fsum_products(line[None, :], wt))
        assert line.tobytes() == kept.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_weighted_sums_rows_longer_than_a_block():
    # a single row longer than the reused buffers is reduced in a fresh one;
    # an infinite imaginary part makes the real part of its complex product
    # NaN, which real and imaginary products taken apart would not
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(2, 70_001)) + 1j * rng.normal(size=(2, 70_001))
    vals[1, 3] = complex(1.0, math.inf)
    w = rng.uniform(0.0, 1.0, 70_001)
    kept = vals.copy()
    assert _bits(_weighted_sums(vals, w)) == _bits(_fsum_products(vals, w))
    assert _bits(_weighted_sums(vals[:, :5], w[:5])) \
        == _bits(_fsum_products(vals[:, :5], w[:5]))
    assert vals.tobytes() == kept.tobytes()


def test_support_check_reaches_every_block():
    # 6400 nodes make blocks of ten rows; only a row of the second block
    # has not decayed at the boundary
    grid = Grid2.gauss_hermite(80, scale=math.sqrt(2.0))
    x1, x2, _ = grid.points
    vals = _decaying_rows(np.random.default_rng(8), 15, x1, x2)
    vals[12] = 1.0
    with pytest.raises(SupportOverflowError):
        integrate_rows(vals, grid)


def test_warm_reduction_allocates_no_block_sized_temporaries():
    # a 20 x 3136 block is about 1 MiB of complex values; once the work
    # buffers exist, reducing it allocates only per-row bookkeeping
    grid = Grid2.gauss_hermite(56, scale=math.sqrt(2.0))
    x1, x2, _ = grid.points
    vals = _decaying_rows(np.random.default_rng(7), 20, x1, x2)
    integrate_rows(vals, grid)
    tracemalloc.start()
    try:
        integrate_rows(vals, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


@pytest.mark.parametrize("k, nrows", [(80, 0), (80, 9), (80, 10), (80, 11),
                                      (80, 20), (80, 35), (260, 3)])
def test_array_and_stream_agree_across_block_edges(k, nrows):
    # 6400 nodes make blocks of ten rows: no row, one row short of a block,
    # one block, one row over, two blocks and several; 67 600 nodes are
    # longer than a block, so each row is reduced on its own
    grid = Grid2.gauss_hermite(k, scale=math.sqrt(2.0))
    x1, x2, w = grid.points
    assert quad._BLOCK_VALUES // x1.size == (10 if k == 80 else 0)
    vals = _decaying_rows(np.random.default_rng(k + nrows), nrows, x1, x2)
    expected = _bits(_fsum_products(vals, w))
    assert _bits(integrate_rows(vals, grid)) == expected
    assert _bits(integrate_rows((row.copy() for row in vals), grid)) \
        == expected


def test_stream_stops_at_the_block_that_fails_its_support_check():
    # rows 23 and 26 of the third ten-row block have not decayed at the
    # boundary: the first of them is reported, as row-by-row calls report
    # it, and no row after that block is read
    grid = Grid2.gauss_hermite(80, scale=math.sqrt(2.0))
    x1, x2, _ = grid.points
    vals = _decaying_rows(np.random.default_rng(9), 45, x1, x2)
    vals[23] = 0.5
    vals[26] = 2.0
    with pytest.raises(SupportOverflowError) as per_row:
        for row in vals:
            integrate_rows([row], grid)
    read = []

    def stream():
        for r, row in enumerate(vals):
            read.append(r)
            yield row
    with pytest.raises(SupportOverflowError) as streamed:
        integrate_rows(stream(), grid)
    assert str(streamed.value) == str(per_row.value)
    assert "5.000e-01" in str(per_row.value)
    assert read == list(range(30))


def test_rows_computed_by_nested_calls_keep_their_bits():
    # each row is scaled by integrals taken while the stream is read, one
    # of them over twelve rows, more than a block: the nested calls gather
    # in blocks of their own and leave the outer block intact
    grid = Grid2.gauss_hermite(80, scale=math.sqrt(2.0))
    x1, x2, w = grid.points
    vals = _decaying_rows(np.random.default_rng(10), 25, x1, x2)

    def scaled(row):
        return row * (integrate_rows(vals[:12], grid)[11]
                      * integrate_rows([row], grid)[0])
    expected = _bits(_fsum_products(np.array([scaled(r) for r in vals]), w))
    assert _bits(integrate_rows((scaled(r) for r in vals), grid)) == expected
    # a row of the wrong length, or a scalar, is refused, not broadcast
    for row in (vals[0][:-1], np.ones(1), 1.0):
        with pytest.raises(ValueError, match="on 6400 nodes"):
            integrate_rows([vals[0], row], grid)


@pytest.mark.parametrize("p, g, k", [
    (P, SYM, 80),
    (PhysicalParams(1.0, -1.0, 1.0, hbar=0.6),
     GaugeChoice(0.37, (0.3, -0.2),
                 parse_poly("0.05*u1^2*u2 - 0.1*u1 + 0.02*u2^3")), 56),
], ids=["unit", "variant"])
def test_basis_change_is_three_row_streams(monkeypatch, p, g, k):
    # 28 distinct states jetted once on the grid, at order 0; 54 overlaps,
    # 66 orthonormality and 100 reconstruction integrals in three streams,
    # each value with the bits of its own inner_product or line_integral
    grid = _default_grid(p, k, "gauss_hermite")
    on_grid = []
    jet = wv.WaveForm.jet

    def counted(self, x1, x2, order=2):
        if np.size(x1) == grid.weights.size:
            on_grid.append(order)
        return jet(self, x1, x2, order)
    calls = []

    def recorded(rows, rule):
        rows = list(rows)
        calls.append((rows, rule, integrate_rows(rows, rule)))
        return calls[-1][2]
    monkeypatch.setattr(wv.WaveForm, "jet", counted)
    monkeypatch.setattr(quad, "integrate_rows", recorded)
    run_basis_change(p, gauge=g, grid_k=k)
    monkeypatch.undo()
    assert on_grid == [0] * 28
    assert [len(rows) for rows, _, _ in calls] == [54, 66, 100]

    (_, plane, overlaps), *lines = calls
    sig = math.sqrt(p.hbar * p.m * p.omega_c)
    labels = [(npl, 0, t1) for npl in range(9)
              for t1 in (0.0, -0.8 * sig, 0.8 * sig, 1.7 * sig)]
    labels += [(npl, nm, t1) for nm in (1, 2, 3) for npl in (0, 1, 3)
               for t1 in (0.0, 0.8 * sig)]
    assert plane.weights.tobytes() == grid.weights.tobytes()
    assert _bits(overlaps) == _bits([
        inner_product(fock_state(g, p, npl, nm), t1_state(g, p, t1, nm), grid)
        for npl, nm, t1 in labels])
    assert [rule.nodes.size for _, rule, _ in lines] == [k, max(60, k)]
    for rows, rule, got in lines:
        assert _bits(got) == _bits([
            line_integral(lambda _, row=row: row, k=rule.nodes.size,
                          scale=sig) for row in rows])
