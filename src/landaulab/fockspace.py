"""Truncated two-sector helicity Fock space: observables as maps from a
ladder shift to coefficients over the ket states, their truncated products,
closed-form matrix elements in the angular-momentum eigenbasis, and the
basis-change coefficients.

States |n+, n-> carry an intra-level quantum number n+ (guiding-centre
sector) and the level number n- (energy sector).  Each operator knows, per
shift, which entries the truncation left exact, and identities are checked
on exactly those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .classical import observables
from .params import (CANONICAL_PARTNER, DegreeOverflowError, GaugeChoice,
                     PhysicalParams)
from .waves import MAX_QUANTUM_NUMBER, check_quantum_number, t1_basis_function

__all__ = [
    "FockBasis",
    "FockOperator",
    "TruncationError",
    "UnitsError",
    "check_units",
    "identity",
    "ladder_ops",
    "build_observable",
    "position_monomials",
    "poly_operator",
    "angular_element",
    "change_of_basis",
    "t1_fock_overlap",
    "gauge_variant_matrix",
    "OBSERVABLE_NAMES",
]

OBSERVABLE_NAMES = ("H", "T1", "T2", "M3", "p1", "p2", "L3",
                    "xc1", "xc2", "x1", "x2")


class TruncationError(ValueError):
    """Raised for a truncation or degree out of range, also for the exact
    entries a campaign reads."""


class UnitsError(ValueError):
    """Raised for units at which the commutator suite overflows."""


@dataclass(frozen=True)
class FockBasis:
    """Tensor-product basis |n+, n-> with 0 <= n+- <= nmax per sector, and
    nmax at most :data:`~landaulab.waves.MAX_QUANTUM_NUMBER`."""

    nmax: int

    def __post_init__(self):
        if self.nmax < 1:
            raise ValueError("nmax must be at least 1")
        if self.nmax > MAX_QUANTUM_NUMBER:
            raise TruncationError(f"nmax {self.nmax} exceeds the validated "
                                  f"maximum {MAX_QUANTUM_NUMBER}")

    @property
    def dim(self) -> int:
        return (self.nmax + 1) ** 2

    def index(self, nplus: int, nminus: int) -> int:
        if not (0 <= nplus <= self.nmax and 0 <= nminus <= self.nmax):
            raise IndexError(f"state ({nplus},{nminus}) outside truncation")
        return nplus * (self.nmax + 1) + nminus

    def labels(self) -> list[tuple[int, int]]:
        k = self.nmax + 1
        return [(i // k, i % k) for i in range(k * k)]


def _cmul(ar, ai, br, bi, out):
    """``out = (ar br - ai bi, ar bi + ai br)``, each operation rounded on
    its own, so no fused multiply-add can enter."""
    np.subtract(ar * br, ai * bi, out=out[0])
    np.add(ar * bi, ai * br, out=out[1])


def _flat(k, *d):
    """Flat indices, row-major, of the kets n with every n + d in the
    basis."""
    lo, hi = ([max(0, *(s * di[i] for di in d)) for i in (0, 1)]
              for s in (-1, 1))
    return (np.arange(lo[0], k - hi[0])[:, None] * k
            + np.arange(lo[1], k - hi[1])).ravel().astype(np.int32)


def _cat(parts):
    return np.concatenate([np.zeros(0, np.int32), *parts])


@lru_cache(maxsize=None)
def _product_plan(ka, ea, kb, eb, k):
    """A product's keys and reaches, and per term, in (dA, dB) order, the
    flat indices of other's entry at n, self's at n + dB and the target's
    at n in the real planes (the imaginary ones are k * k further on)."""
    step = 2 * k * k
    keys = sorted({(a[0] + b[0], a[1] + b[1]) for a in ka for b in kb})
    reach = dict.fromkeys(keys, (0, 0))
    b, a, t = [], [], []
    for ia, (da, xa) in enumerate(zip(ka, ea)):
        for ib, (db, xb) in enumerate(zip(kb, eb)):
            d = (da[0] + db[0], da[1] + db[1])
            reach[d] = tuple(max(reach[d][i], max(0, db[i]) + xb[i],
                                 max(db[i], d[i]) + xa[i]) for i in (0, 1))
            n = _flat(k, db, d)
            b.append(ib * step + n)
            a.append(ia * step + n + db[0] * k + db[1])
            t.append(keys.index(d) * step + n)
    return tuple(keys), tuple(tuple(r - max(0, i) for r, i in zip(
        reach[d], d)) for d in keys), *map(_cat, (b, a, t))


@lru_cache(maxsize=None)
def _union_plan(ka, ea, kb, eb):
    """Keys and reaches of a sum, and each operand's slots among them."""
    reach: dict = {}
    for d, e in (*zip(ka, ea), *zip(kb, eb)):
        reach[d] = tuple(map(max, reach.get(d, (0, 0)), e))
    keys = tuple(sorted(reach))
    return keys, tuple(map(reach.get, keys)), *(
        [keys.index(d) for d in side] for side in (ka, kb))


@lru_cache(maxsize=None)
def _dagger_plan(keys, k):
    """Real-plane flat indices of an adjoint's sources and targets: the
    entry of shift d at ket m moves to shift -d at ket m + d."""
    m, step = [_flat(k, d) for d in keys], 2 * k * k
    return _cat(i * step + n for i, n in enumerate(m)), _cat(
        (len(keys) - 1 - i) * step + n + d[0] * k + d[1]
        for i, (n, d) in enumerate(zip(m, keys)))


@lru_cache(maxsize=None)
def _exact_plan(keys, reaches, k):
    """Real-plane flat indices of the entries the reach marks exact: the
    kets n with n + d, n + e and n + d + e in the basis."""
    return _cat(i * 2 * k * k + _flat(k, d, e, (d[0] + e[0], d[1] + e[1]))
                for i, (d, e) in enumerate(zip(keys, reaches)))


def _op(basis, keys, stack, reaches, op=None) -> "FockOperator":
    """``op``, or a new operator, holding this storage, made read-only."""
    op = op or object.__new__(FockOperator)
    stack.flags.writeable = False
    op.basis, op.keys, op.stack, op.reaches = basis, keys, stack, reaches
    return op


class FockOperator:
    """Operator stored by shift: sorted ``keys`` d = (dn+, dn-), their
    ``reaches`` e[d] and a read-only float64 ``stack`` of shape ``(S, 2,
    nmax+1, nmax+1)`` whose ``[s, :, n+, n-]`` holds the real and imaginary
    part of ``<n+ + dn+, n- + dn-| O |n+, n->`` for key s, zero where the
    target leaves the basis; ``shifts`` and ``reach`` map d to both.  The
    entry at ket n equals the untruncated operator's, bit for bit, when
    ``max(n, n + d) + e[d] <= nmax`` in each sector.  An operator given
    entrywise has reach 0.  Each operation is one gather/scatter plan,
    cached per key signature; none writes into an operand."""

    def __init__(self, basis: FockBasis, shifts: dict, reach: dict):
        k = basis.nmax + 1
        if any(np.shape(c) != (2, k, k) for c in shifts.values()):
            raise ValueError("coefficient arrays do not match the basis")
        if reach.keys() != shifts.keys():
            raise ValueError("reach and coefficient shifts differ")
        keys = tuple(sorted(shifts))
        _op(basis, keys, np.array([shifts[d] for d in keys], float).reshape(
            -1, 2, k, k), tuple(tuple(reach[d]) for d in keys), self)

    @cached_property
    def shifts(self) -> dict:
        return dict(zip(self.keys, self.stack))

    @cached_property
    def reach(self) -> dict:
        return dict(zip(self.keys, self.reaches))

    def _combine(self, other: "FockOperator", op) -> "FockOperator":
        # a shift missing from one operand reads an exact zero there
        self._check(other)
        keys, reaches, *slots = _union_plan(self.keys, self.reaches,
                                            other.keys, other.reaches)

        def embed(stack, pos):
            if len(pos) == len(keys):
                return stack
            out = np.zeros((len(keys),) + stack.shape[1:])
            out[pos] = stack
            return out
        return _op(self.basis, keys, op(*map(
            embed, (self.stack, other.stack), slots)), reaches)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> "FockOperator":
        z, c = complex(scalar), self.stack
        out = np.empty_like(c)
        _cmul(z.real, z.imag, c[:, 0], c[:, 1], (out[:, 0], out[:, 1]))
        return _op(self.basis, self.keys, out, self.reaches)

    __rmul__ = __mul__

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        """Truncated product ``self other``.  For a shift dA of ``self`` and
        dB of ``other`` the term at ket n is other's coefficient at n times
        self's at n + dB, and it lands on shift dA + dB.  The terms of one
        shift are added in increasing (dA, dB) order, from zero.  A term whose
        intermediate state n + dB or target leaves the basis is left out, as
        from the truncated matrix product; below 0 it is an exact zero, so
        shift d has the reach max over its terms of max(max(0, dB) + e_B,
        max(dB, d) + e_A) - max(0, d), per sector."""
        self._check(other)
        k = self.basis.nmax + 1
        keys, reaches, b, a, t = _product_plan(self.keys, self.reaches,
                                               other.keys, other.reaches, k)
        x, y, kk = self.stack.reshape(-1), other.stack.reshape(-1), k * k
        terms = np.empty((2, len(b)))
        _cmul(y.take(b), y[kk:].take(b), x.take(a), x[kk:].take(a), terms)
        out = np.zeros(len(keys) * 2 * kk)
        np.add.at(out, t, terms[0])
        np.add.at(out[kk:], t, terms[1])
        return _op(self.basis, keys, out.reshape(-1, 2, k, k), reaches)

    def dagger(self) -> "FockOperator":
        # <n|O^dag|n - d> is the conjugate of <n - d|O|n>
        k = self.basis.nmax + 1
        src, dst = _dagger_plan(self.keys, k)
        x, out = self.stack.reshape(-1), np.zeros(self.stack.size)
        out[dst] = x.take(src)
        out[k * k:][dst] = x[k * k:].take(src) * -1.0
        return _op(self.basis, tuple((-d0, -d1) for d0, d1 in self.keys[::-1]),
                   out.reshape(self.stack.shape), self.reaches[::-1])

    def magnitudes(self) -> np.ndarray:
        """Moduli (``hypot`` of the real pair) of the exact entries, in
        sorted shift order and row-major within a shift."""
        k = self.basis.nmax + 1
        i, x = _exact_plan(self.keys, self.reaches, k), self.stack.reshape(-1)
        return np.hypot(x.take(i), x[k * k:].take(i))

    def entries(self, bra, ket) -> np.ndarray:
        """``<bra|O|ket>`` for labels ``bra = (n+, n-)`` and ``ket``: integers
        or integer arrays that broadcast against each other."""
        labels = np.broadcast_arrays(*bra, *ket)
        if any(np.any((a < 0) | (a > self.basis.nmax)) for a in labels):
            raise IndexError("state outside truncation")
        bp, bm, kp, km = labels
        out = np.zeros(bp.shape, dtype=complex)
        for (d0, d1), c in zip(self.keys, self.stack):
            hit = (bp - kp == d0) & (bm - km == d1)
            out.real[hit] = c[0][kp[hit], km[hit]]
            out.imag[hit] = c[1][kp[hit], km[hit]]
        return out

    def element(self, bra: tuple[int, int], ket: tuple[int, int]) -> complex:
        return complex(self.entries(bra, ket))

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix in :meth:`FockBasis.index` order, for tests."""
        nplus, nminus = np.array(self.basis.labels()).T[:, :, None]
        return self.entries((nplus, nminus), (nplus.T, nminus.T))

    def _check(self, other: "FockOperator"):
        if other.basis.nmax != self.basis.nmax:
            raise ValueError("operators live on different bases")


def exact_nmax(ops, bra, ket) -> int:
    """The smallest nmax at which every entry ``<bra|O|ket>`` of every
    operator O of ``ops`` is exact, with labels as for
    :meth:`FockOperator.entries`: per sector, the larger label plus the
    reach of its shift (an entry off the stored shifts is an exact zero)."""
    bp, bm, kp, km = map(np.ravel, np.broadcast_arrays(*bra, *ket))
    hi = np.maximum(bp, kp), np.maximum(bm, km)
    need = [0] + [int(t.max()) for t in hi if ops and t.size]
    for op in ops:
        for (d0, d1), e in op.reach.items():
            hit = (bp - kp == d0) & (bm - km == d1)
            need += [int(t[hit].max()) + i for t, i in zip(hi, e) if hit.any()]
    return max(need)


@lru_cache(maxsize=None)
def sector_numbers(b: FockBasis):
    """Read-only grids ``(n+, n-)`` over the ket states, as a coefficient
    array's."""
    n = np.arange(b.nmax + 1, dtype=float)
    grids = np.meshgrid(n, n, indexing="ij")
    for g in grids:
        g.flags.writeable = False
    return tuple(grids)


def _real_operator(b: FockBasis, d, values) -> FockOperator:
    """Operator with the single shift ``d`` and real coefficients."""
    return _op(b, (d,), np.stack((values, np.zeros_like(values)))[None],
               ((0, 0),))


def identity(b: FockBasis) -> FockOperator:
    """The shift (0, 0) with every coefficient one."""
    return _real_operator(b, (0, 0), np.ones((b.nmax + 1, b.nmax + 1)))


@lru_cache(maxsize=None)
def ladder_ops(b: FockBasis):
    """(a+, a+^dag, a-, a-^dag): a lowers its sector with coefficient
    sqrt(n), a^dag raises it with sqrt(n + 1), zero at n = nmax."""
    ops = []
    for n, (u0, u1) in zip(sector_numbers(b), ((1, 0), (0, 1))):
        ops += [_real_operator(b, (-u0, -u1), np.sqrt(n)),
                _real_operator(b, (u0, u1),
                               np.where(n < b.nmax, np.sqrt(n + 1.0), 0.0))]
    return tuple(ops)


def build_observable(name: str, p: PhysicalParams, x0: tuple[float, float],
                     b: FockBasis) -> FockOperator:
    """Exact shift map of a physical observable on the truncated basis.

    Diagonal observables (H, M3) are written down entrywise; the rest are
    assembled from the helicity ladders.  Every returned operator is exactly
    Hermitian.
    """
    s = p.sign
    c = p.ladder_scale
    lam = p.magnetic_length
    nplus, nminus = sector_numbers(b)

    def centred(x, u):
        # x times the identity plus u; no (0, 0) shift of zeros at x = 0
        return x * identity(b) + u if x else u

    if name == "H":
        return _real_operator(b, (0, 0), p.hbar * p.omega_c * (nminus + 0.5))
    if name == "M3":
        return _real_operator(b, (0, 0), s * p.hbar * (nplus - nminus))

    ap, apd, am, amd = ladder_ops(b)
    if name == "T1":
        return 1j * c * (apd - ap)
    if name == "T2":
        return (s * c) * (apd + ap)
    if name == "p1":
        return 1j * c * (amd - am)
    if name == "p2":
        return (-s * c) * (amd + am)
    if name == "L3":
        x = apd @ amd
        number = _real_operator(b, (0, 0), 2.0 * nminus + 1.0)
        return -s * p.hbar * (number + x + x.dagger())
    if name == "x1":
        m = (lam / math.sqrt(2.0)) * (ap + am)
        return centred(x0[0], m + m.dagger())
    if name == "x2":
        m = (1j * s * lam / math.sqrt(2.0)) * (ap - am)
        return centred(x0[1], m + m.dagger())
    # dividing by qB multiplies by its reciprocal, as numpy's complex division
    if name == "xc1":
        return centred(x0[0], build_observable("T2", p, x0, b) * (1.0 / p.qB))
    if name == "xc2":
        return centred(x0[1], build_observable("T1", p, x0, b) * (-1.0 / p.qB))
    raise ValueError(f"unknown observable {name!r}")


def position_monomials(p: PhysicalParams, b: FockBasis,
                       keys) -> dict[tuple, FockOperator]:
    """The operator of each distinct monomial key in ``keys``, in sorted key
    order; a degree above both 2 and nmax raises :class:`TruncationError`.
    A position key (i, j), or (i, j, 0, 0) in (u1, u2, p1, p2), is ``pow1[i]
    @ pow2[j]`` of the power chains ``1, u, u @ u, ...``, or its one chain
    element where the other exponent is 0, the same bits whichever
    polynomial needs it.  A key with a momentum factor is Weyl-quantised,
    exact to degree 2 (Groenewold 1946): a coordinate A, ``A @ A`` or
    ``0.5 (A @ B + B @ A)`` in axis order, and a higher degree raises
    :class:`DegreeOverflowError`."""
    keys = sorted(set(keys))
    deg = max(map(sum, keys), default=0)
    if deg > max(b.nmax, 2):
        raise TruncationError(
            f"polynomial degree {deg} exceeds truncation nmax={b.nmax}")
    weyl = [key for key in keys if any(key[2:])]
    if any(sum(key) > 2 for key in weyl):
        raise DegreeOverflowError(f"Weyl quantisation is exact only up to "
                                  f"degree 2: {max(weyl, key=sum)}")
    u = [build_observable(x, p, (0.0, 0.0), b)
         for x in ("x1", "x2", "p1", "p2")[:4 if weyl else 2]]
    chains = [[identity(b), u[0]], [identity(b), u[1]]]
    for axis, chain in enumerate(chains):
        for _ in range(max([k[axis] for k in keys if k not in weyl] + [1]) - 1):
            chain.append(chain[-1] @ u[axis])

    def product(key):
        a, *c = [u[i] for i, e in enumerate(key) for _ in range(e)]
        return (a if not c else a @ a if c[0] is a
                else 0.5 * (a @ c[0] + c[0] @ a))
    return {key: product(key) if key in weyl
            else chains[0][key[0]] @ chains[1][key[1]] if all(key[:2])
            else chains[0][key[0]] if key[0] else chains[1][key[1]]
            for key in keys}


def poly_operator(f, monomials: dict, b: FockBasis) -> FockOperator:
    """Operator of f, a polynomial in (u1, u2) or (u1, u2, p1, p2) with u =
    x - x0: the sum of ``f.terms[k] * monomials[k]`` from zero, in sorted
    term order, over a :func:`position_monomials` table holding every term
    of f.  The bits do not depend on which other keys the table holds."""
    op = FockOperator(b, {}, {})
    for key in sorted(f.terms):
        op = op + f.terms[key] * monomials[key]
    return op


def check_units(p: PhysicalParams, nmax: int, brackets):
    """Raise :class:`UnitsError` where the commutator suite of
    ``brackets`` ((A, C) -> {f_A, f_C}) would form a non-finite number at
    x0 = 0.  There each operator it forms is Weyl's Q of a polynomial g in
    (u1, u2, p1, p2) of degree at most 2, or a product of two, and an entry
    of Q(g) is at most B(g) = sum |g_k| B(k): 1 for a constant, the largest
    entry of a coordinate (l_B sqrt(nmax / 2) for u_i, c sqrt(nmax) for
    p_i) and 4 times theirs for a product of two (four shifts per factor).
    So an entry of A @ C - C @ A - i hbar Q({f_A, f_C}) stays below 8
    B(f_A) B(f_C) + hbar B({f_A, f_C})."""
    f = observables(p, GaugeChoice(0.0))
    top = [p.magnetic_length * math.sqrt(nmax / 2.0)] * 2 \
        + [p.ladder_scale * math.sqrt(nmax)] * 2

    def bound(g):
        return sum(abs(v) * max(1, 4 * sum(k) - 4) * math.prod(
            t for t, e in zip(top, k) for _ in range(e))
            for k, v in g.terms.items())
    # with the charge relation's 2 m H + 2 qB M3
    gaps = [2.0 * p.m * bound(f["H"]) + 2.0 * abs(p.qB) * bound(f["M3"])]
    for (a, c), g in brackets.items():
        if not all(map(math.isfinite, g.terms.values())):
            raise UnitsError(f"the bracket {{{a}, {c}}} is not finite at "
                             "these units")
        gaps.append(8.0 * bound(f[a]) * bound(f[c]) + p.hbar * bound(g))
    if not all(gap < math.inf for gap in gaps):
        raise UnitsError("the suite's operator products overflow at these "
                         "units")


# ---------------------------------------------------------------------------
# Closed-form matrix elements in the angular-momentum eigenbasis
# ---------------------------------------------------------------------------


def angular_element(name: str, l1, n1, l2, n2, p: PhysicalParams):
    """Closed-form matrix element between angular-basis states (l1, n1) and
    (l2, n2), labelled by total angular momentum s*hbar*l and level n.

    The labels may be integer arrays, which broadcast against each other;
    the value is then an array of the broadcast shape.  Scalar labels give
    a Python scalar.  Each entry is the same arithmetic, in the same order,
    as for its scalar labels, so it has the same bits.

    The orbital angular momentum between different levels is not part of the
    tabulated set; its value there is computed from the ladder action.
    """
    l1, n1, l2, n2 = (np.asarray(a) for a in (l1, n1, l2, n2))
    if np.any((l1 < -n1) | (l2 < -n2) | (n1 < 0) | (n2 < 0)):
        raise ValueError("labels must satisfy n >= 0 and l >= -n")
    s = p.sign
    hb = p.hbar
    c = p.ladder_scale

    def d(a, bb):
        return np.where(a == bb, 1.0, 0.0)

    # guarded square roots: each factor is only evaluated where its Kronecker
    # condition holds, keeping out-of-band labels well defined
    def up(cond, arg):
        return np.sqrt(np.where(cond, arg, 0))

    if name == "H":
        v = hb * p.omega_c * (n1 + 0.5) * d(l1, l2) * d(n1, n2)
    elif name == "T1":
        v = 1j * c * (up(l1 == l2 + 1, n1 + l1)
                      - up(l2 == l1 + 1, n1 + l2)) * d(n1, n2)
    elif name == "T2":
        v = s * c * (up(l1 == l2 + 1, n1 + l1)
                     + up(l2 == l1 + 1, n1 + l2)) * d(n1, n2)
    elif name == "M3":
        v = s * hb * l1 * d(l1, l2) * d(n1, n2)
    elif name == "p1":
        v = 1j * c * (up((l2 == l1 + 1) & (n1 == n2 + 1), n1)
                      - up((l1 == l2 + 1) & (n2 == n1 + 1), n2))
    elif name == "p2":
        v = -s * c * (up((l2 == l1 + 1) & (n1 == n2 + 1), n1)
                      + up((l1 == l2 + 1) & (n2 == n1 + 1), n2))
    elif name == "L3":
        # between levels: ladder action of
        # -s*hbar*(2 a-^dag a- + 1 + a+^dag a-^dag + a+ a-)
        ladder = np.where(
            l1 == l2,
            np.where(n1 == n2 + 1, -s * hb * np.sqrt((n2 + l2 + 1) * (n2 + 1)),
                     np.where(n2 == n1 + 1, -s * hb * np.sqrt((n2 + l2) * n2),
                              0.0)),
            0.0)
        v = np.where(n1 != n2, ladder, -s * hb * (2 * n1 + 1) * d(l1, l2))
    else:
        raise ValueError(f"unknown observable {name!r}")
    shape = np.broadcast_shapes(l1.shape, n1.shape, l2.shape, n2.shape)
    v = np.broadcast_to(v, shape)
    return v if shape else v.item()


def change_of_basis(nplus: int, t1, p: PhysicalParams):
    """Coefficient <n+, n-|T1, E(m-)> of the basis change between the
    angular and translation eigenbases, diagonal factor delta(n-, m-) left
    to the caller:

    ``i^{n+} / sqrt(2^{n+} n+!) * (pi hbar m w)^{-1/4}
      * exp(-t1^2 / (2 hbar m w)) * H_{n+}(t1 / sqrt(hbar m w))``,

    the conjugate of the translation-eigenvalue profile
    :func:`~landaulab.waves.t1_basis_function` at ``(t1, 0.0)``.  ``t1``
    may be an array; each entry has the bits of its scalar call.

    The phase is anchored in the lowest level; see :func:`t1_fock_overlap`
    for the level-dependent phase required when combining with the explicit
    wave functions at n- > 0.
    """
    if nplus < 0:
        raise ValueError("nplus must be nonnegative")
    return np.conj(t1_basis_function(nplus, p).value(t1, 0.0))


def t1_fock_overlap(nplus: int, nminus: int, t1, p: PhysicalParams):
    """Full overlap <n+, n-|T1, E(n-)> consistent with the explicit wave
    functions of both bases: the closed-form coefficient times the level
    phase (i s)^{n-}; ``t1`` may be an array, as for
    :func:`change_of_basis`.

    The level phase is forced by the (-1)^n convention of the angular wave
    functions together with the real-coefficient convention of the
    translation-eigenbasis wave functions; it is confirmed independently by
    quadrature in the test suite.
    """
    if nminus < 0:
        raise ValueError("nminus must be nonnegative")
    check_quantum_number(nminus, "nminus")
    return (1j * p.sign) ** nminus * change_of_basis(nplus, t1, p)


# ---------------------------------------------------------------------------
# Gauge-variant operators from gauge-invariant building blocks
# ---------------------------------------------------------------------------


def gauge_variant_matrix(which: str, g: GaugeChoice, p: PhysicalParams,
                         b: FockBasis) -> FockOperator:
    """Gauge-variant canonical operator (pi1, pi2 or L3c): its gauge-invariant
    partner observable plus the :func:`poly_operator` of their difference in
    ``classical.observables``, a polynomial in u alone, over its own
    :func:`position_monomials` table."""
    partner, f = CANONICAL_PARTNER[which], observables(p, g)
    extra = f[which] - f[partner]
    return build_observable(partner, p, g.x0, b) \
        + poly_operator(extra, position_monomials(p, b, extra.terms), b)
