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
from functools import lru_cache

import numpy as np

from .classical import observables
from .params import (CANONICAL_PARTNER, DegreeOverflowError, GaugeChoice,
                     PhysicalParams)
from .waves import MAX_QUANTUM_NUMBER, check_quantum_number, t1_basis_function

__all__ = [
    "FockBasis",
    "FockOperator",
    "TruncationError",
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


@lru_cache(maxsize=None)
def _windows(d, k: int, e=(0, 0)):
    """Indices into a coefficient array over 0..k-1 per sector of the kets n
    with n + d and ``max(n, n + d) + e`` in 0..k-1, and of their targets."""
    lo = [max(0, -di) for di in d]
    hi = [max(a, k - ei - max(0, di)) for a, di, ei in zip(lo, d, e)]
    return ((slice(None), *map(slice, lo, hi)), (slice(None), *(
        slice(a + di, z + di) for a, z, di in zip(lo, hi, d))))


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product ``(ar br - ai bi, ar bi + ai br)`` of real pairs, each
    operation rounded on its own, so no fused multiply-add can enter."""
    p, q = a * b, a * b[::-1]
    np.subtract(p[0], p[1], out=p[0])
    np.add(q[0], q[1], out=p[1])
    return p


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Operator stored by shift: ``shifts`` maps (dn+, dn-) to a float64 array
    of shape ``(2, nmax+1, nmax+1)`` whose ``[:, n+, n-]`` holds the real and
    imaginary part of ``<n+ + dn+, n- + dn-| O |n+, n->``, zero where the
    target leaves the basis.  ``reach`` maps each shift d to a pair e[d]:
    the entry at ket n equals the untruncated operator's, bit for bit, when
    ``max(n, n + d) + e[d] <= nmax`` in each sector.  An operator given
    entrywise has reach 0; each operation below derives its result's."""

    basis: FockBasis
    shifts: dict
    reach: dict

    def __post_init__(self):
        shape = (2, self.basis.nmax + 1, self.basis.nmax + 1)
        if any(np.shape(c) != shape for c in self.shifts.values()):
            raise ValueError("coefficient arrays do not match the basis")
        if self.reach.keys() != self.shifts.keys():
            raise ValueError("reach and coefficient shifts differ")

    def _combine(self, other: "FockOperator", op) -> "FockOperator":
        # a shift missing from one operand reads an exact zero there
        self._check(other)
        zero = np.zeros((2, self.basis.nmax + 1, self.basis.nmax + 1))
        keys = sorted(self.shifts.keys() | other.shifts.keys())
        return FockOperator(self.basis, {
            d: op(self.shifts.get(d, zero), other.shifts.get(d, zero))
            for d in keys}, {d: tuple(map(max, self.reach.get(d, (0, 0)),
                                          other.reach.get(d, (0, 0))))
                             for d in keys})

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> "FockOperator":
        z = complex(scalar)
        pair = np.array([[[z.real]], [[z.imag]]])
        return FockOperator(self.basis, {d: _cmul(pair, c) for d, c in
                                         self.shifts.items()}, self.reach)

    __rmul__ = __mul__

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        """Truncated product ``self other``.  For a shift dA of ``self`` and
        dB of ``other`` the term at ket n is other's coefficient at n times
        self's at n + dB, and it lands on shift dA + dB.  The terms of one
        shift are added in increasing (dA, dB) order, from zero.  A term whose
        intermediate state n + dB leaves the basis is left out, as from the
        truncated matrix product; below 0 it is an exact zero, so shift d
        has the reach max over its terms of max(max(0, dB) + e_B, max(dB, d)
        + e_A) - max(0, d), per sector."""
        self._check(other)
        out: dict = {}
        reach: dict = {}
        for da, a in sorted(self.shifts.items()):
            ea = self.reach[da]
            for db, b in sorted(other.shifts.items()):
                kets, mids = _windows(db, self.basis.nmax + 1)
                d = (da[0] + db[0], da[1] + db[1])
                if d not in out:
                    out[d] = np.zeros_like(a)
                out[d][kets] += _cmul(b[kets], a[mids])
                r, eb = reach.get(d, (0, 0)), other.reach[db]
                reach[d] = tuple(max(r[i], max(0, db[i]) + eb[i],
                                     max(db[i], d[i]) + ea[i]) for i in (0, 1))
        return FockOperator(self.basis, out, {
            d: tuple(r - max(0, i) for r, i in zip(reach[d], d))
            for d in out})

    def dagger(self) -> "FockOperator":
        # <n|O^dag|n - d> is the conjugate of <n - d|O|n>
        out = {}
        for (d0, d1), c in self.shifts.items():
            kets, sources = _windows((-d0, -d1), self.basis.nmax + 1)
            out[(-d0, -d1)] = np.zeros_like(c)
            out[(-d0, -d1)][kets] = c[sources] * [[[1.0]], [[-1.0]]]
        return FockOperator(self.basis, out, {
            (-d0, -d1): e for (d0, d1), e in self.reach.items()})

    def magnitudes(self) -> np.ndarray:
        """Moduli (``hypot`` of the real pair) of the exact entries, shift
        by shift."""
        k = self.basis.nmax + 1
        parts = [np.hypot(*c[_windows(d, k, self.reach[d])[0]]).ravel()
                 for d, c in sorted(self.shifts.items())]
        return np.concatenate(parts) if parts else np.zeros(0)

    def entries(self, bra, ket) -> np.ndarray:
        """``<bra|O|ket>`` for labels ``bra = (n+, n-)`` and ``ket``: integers
        or integer arrays that broadcast against each other."""
        labels = np.broadcast_arrays(*bra, *ket)
        if any(np.any((a < 0) | (a > self.basis.nmax)) for a in labels):
            raise IndexError("state outside truncation")
        bp, bm, kp, km = labels
        out = np.zeros(bp.shape, dtype=complex)
        for (d0, d1), c in self.shifts.items():
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


def sector_numbers(b: FockBasis):
    """Grids ``(n+, n-)`` over the ket states, as a coefficient array's."""
    n = np.arange(b.nmax + 1, dtype=float)
    return tuple(np.meshgrid(n, n, indexing="ij"))


def _real_operator(b: FockBasis, d, values) -> FockOperator:
    """Operator with the single shift ``d`` and real coefficients."""
    return FockOperator(b, {d: np.stack((values, np.zeros_like(values)))},
                        {d: (0, 0)})


def identity(b: FockBasis) -> FockOperator:
    """The shift (0, 0) with every coefficient one."""
    return _real_operator(b, (0, 0), np.ones((b.nmax + 1, b.nmax + 1)))


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
                         b: FockBasis, monomials=None) -> FockOperator:
    """Gauge-variant canonical operator (pi1, pi2 or L3c): its gauge-invariant
    partner observable plus the :func:`poly_operator` of their difference in
    ``classical.observables``, a polynomial in u alone, over the
    :func:`position_monomials` table ``monomials`` (default: its own)."""
    partner, f = CANONICAL_PARTNER[which], observables(p, g)
    extra = f[which] - f[partner]
    monomials = monomials or position_monomials(p, b, extra.terms)
    return build_observable(partner, p, g.x0, b) \
        + poly_operator(extra, monomials, b)
