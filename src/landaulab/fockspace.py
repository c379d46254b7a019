"""Truncated two-sector helicity Fock space: observables as maps from a
ladder shift to coefficients over the ket states, their truncated products,
closed-form matrix elements in the angular-momentum eigenbasis, and the
basis-change coefficients.

States |n+, n-> carry an intra-level quantum number n+ (guiding-centre
sector) and the level number n- (energy sector).  Truncation corrupts only
entries near the cutoff, so every identity is checked on an interior
subspace whose margin covers the ladder excursions of the operators
involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .params import (CANONICAL_PARTNER, GaugeChoice, PhysicalParams, Poly2,
                     canonical_extra)
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
    "AngularElement",
    "angular_element",
    "change_of_basis",
    "t1_fock_overlap",
    "gauge_variant_matrix",
    "OBSERVABLE_NAMES",
]

OBSERVABLE_NAMES = ("H", "T1", "T2", "M3", "p1", "p2", "L3",
                    "xc1", "xc2", "x1", "x2")


class TruncationError(ValueError):
    """Raised for a truncation, margin or degree out of range."""


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

    def _cut(self, margin: int) -> int:
        if margin < 0 or margin > self.nmax:
            raise TruncationError(f"margin {margin} out of range for nmax {self.nmax}")
        return self.nmax - margin

    def interior_indices(self, margin: int) -> np.ndarray:
        """Flat indices of states with n+- <= nmax - margin."""
        n = np.arange(self._cut(margin) + 1)
        return (n[:, None] * (self.nmax + 1) + n[None, :]).ravel()


def _windows(d, k: int):
    """Indices into a coefficient array over 0..k-1 per sector of the kets n
    whose target n + d also lies in 0..k-1, and of those targets."""
    lo = [max(0, -di) for di in d]
    hi = [max(a, k - max(0, di)) for a, di in zip(lo, d)]
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
    target leaves the basis.  ``excursion`` is metadata: the largest ladder
    step the operator takes."""

    basis: FockBasis
    shifts: dict
    excursion: int = 0

    def __post_init__(self):
        shape = (2, self.basis.nmax + 1, self.basis.nmax + 1)
        if any(np.shape(c) != shape for c in self.shifts.values()):
            raise ValueError("coefficient arrays do not match the basis")
        if self.excursion < 0:
            raise ValueError("excursion must be nonnegative")

    def _combine(self, other: "FockOperator", op) -> "FockOperator":
        # a shift missing from one operand reads zero there
        self._check(other)
        zero = np.zeros((2, self.basis.nmax + 1, self.basis.nmax + 1))
        return FockOperator(self.basis, {
            d: op(self.shifts.get(d, zero), other.shifts.get(d, zero))
            for d in sorted(self.shifts.keys() | other.shifts.keys())},
            max(self.excursion, other.excursion))

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> "FockOperator":
        z = complex(scalar)
        pair = np.array([[[z.real]], [[z.imag]]])
        return FockOperator(self.basis, {d: _cmul(pair, c) for d, c in
                                         self.shifts.items()}, self.excursion)

    __rmul__ = __mul__

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        """Truncated product ``self other``.  For a shift dA of ``self`` and
        dB of ``other`` the term at ket n is other's coefficient at n times
        self's at n + dB, and it lands on shift dA + dB.  The terms of one
        shift are added in increasing (dA, dB) order, from zero.  A term whose
        intermediate state n + dB leaves the basis is left out, as from the
        truncated matrix product."""
        self._check(other)
        out: dict = {}
        for da, a in sorted(self.shifts.items()):
            for db, b in sorted(other.shifts.items()):
                kets, mids = _windows(db, self.basis.nmax + 1)
                d = (da[0] + db[0], da[1] + db[1])
                if d not in out:
                    out[d] = np.zeros_like(a)
                out[d][kets] += _cmul(b[kets], a[mids])
        return FockOperator(self.basis, out, self.excursion + other.excursion)

    def dagger(self) -> "FockOperator":
        # <n|O^dag|n - d> is the conjugate of <n - d|O|n>
        out = {}
        for (d0, d1), c in self.shifts.items():
            kets, sources = _windows((-d0, -d1), self.basis.nmax + 1)
            out[(-d0, -d1)] = np.zeros_like(c)
            out[(-d0, -d1)][kets] = c[sources] * [[[1.0]], [[-1.0]]]
        return FockOperator(self.basis, out, self.excursion)

    def is_hermitian_exact(self) -> bool:
        return not np.any((self - self.dagger()).magnitudes())

    def magnitudes(self, margin: int = 0) -> np.ndarray:
        """Moduli (``hypot`` of the real pair) of the stored entries whose ket
        and target both have n+- <= nmax - margin; all others are zero."""
        k = self.basis._cut(margin) + 1
        parts = [np.hypot(*c[_windows(d, k)[0]]).ravel()
                 for d, c in sorted(self.shifts.items())]
        return np.concatenate(parts) if parts else np.zeros(0)

    def entries(self, bra, ket) -> np.ndarray:
        """``<bra|O|ket>`` for labels ``bra = (n+, n-)`` and ``ket``: integers
        or integer arrays that broadcast against each other."""
        labels = np.broadcast_arrays(*(np.asarray(a) for a in (*bra, *ket)))
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


def sector_numbers(b: FockBasis):
    """Grids ``(n+, n-)`` over the ket states, as a coefficient array's."""
    n = np.arange(b.nmax + 1, dtype=float)
    return tuple(np.meshgrid(n, n, indexing="ij"))


def _real_operator(b: FockBasis, d, values, excursion=0) -> FockOperator:
    """Operator with the single shift ``d`` and real coefficients."""
    return FockOperator(b, {d: np.stack((values, np.zeros_like(values)))},
                        excursion)


def identity(b: FockBasis) -> FockOperator:
    """The shift (0, 0) with every coefficient one."""
    return _real_operator(b, (0, 0), np.ones((b.nmax + 1, b.nmax + 1)))


def ladder_ops(b: FockBasis):
    """(a+, a+^dag, a-, a-^dag): a lowers its sector with coefficient
    sqrt(n), a^dag raises it with sqrt(n + 1), zero at n = nmax."""
    ops = []
    for n, (u0, u1) in zip(sector_numbers(b), ((1, 0), (0, 1))):
        ops += [_real_operator(b, (-u0, -u1), np.sqrt(n), 1),
                _real_operator(b, (u0, u1),
                               np.where(n < b.nmax, np.sqrt(n + 1.0), 0.0), 1)]
    return tuple(ops)


def build_observable(name: str, p: PhysicalParams, x0: tuple[float, float],
                     b: FockBasis) -> FockOperator:
    """Exact shift map of a physical observable on the truncated basis.

    Diagonal observables (H, M3) are written down entrywise; the rest are
    assembled from the helicity ladders.  Every returned operator is exactly
    Hermitian.
    """
    s = p.sign
    c = math.sqrt(p.hbar * p.m * p.omega_c / 2.0)
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
        return replace(-s * p.hbar * (number + x + x.dagger()), excursion=1)
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
                       keys) -> dict[tuple[int, int], FockOperator]:
    """The position monomials (x1 - x0_1)^i (x2 - x0_2)^j, one per distinct
    ``(i, j)`` in ``keys``, in sorted key order: ``pow1[i] @ pow2[j]`` of
    the power chains ``1, 1 @ u, (1 @ u) @ u, ...``, so a monomial has the
    same bits whichever polynomial needs it.  A product with the identity
    copies the other factor exactly (times one, plus zeros).
    """
    keys = sorted(set(keys))
    deg = max((i + j for i, j in keys), default=0)
    if deg > b.nmax:
        raise TruncationError(
            f"polynomial degree {deg} exceeds truncation nmax={b.nmax}")
    chains = []
    for name, top in (("x1", max((i for i, _ in keys), default=0)),
                      ("x2", max((j for _, j in keys), default=0))):
        u = build_observable(name, p, (0.0, 0.0), b)
        chain = [identity(b)]
        for _ in range(top):
            chain.append(chain[-1] @ u)
        chains.append(chain)
    return {(i, j): chains[0][i] @ chains[1][j] for (i, j) in keys}


def poly_operator(f: Poly2, monomials: dict, b: FockBasis) -> FockOperator:
    """Operator f(x1 - x0_1, x2 - x0_2): the sum of ``f.terms[k] *
    monomials[k]`` from zero, in sorted term order, where ``monomials`` is a
    :func:`position_monomials` table holding every term of f.  The bits do
    not depend on which other keys the table holds."""
    op = FockOperator(b, {})
    for key in sorted(f.terms):
        op = op + f.terms[key] * monomials[key]
    return op


# ---------------------------------------------------------------------------
# Closed-form matrix elements in the angular-momentum eigenbasis
# ---------------------------------------------------------------------------


class AngularElement(NamedTuple):
    value: complex
    beyond_table: bool


def angular_element(name: str, l1, n1, l2, n2,
                   p: PhysicalParams) -> AngularElement:
    """Closed-form matrix element between angular-basis states (l1, n1) and
    (l2, n2), labelled by total angular momentum s*hbar*l and level n.

    The labels may be integer arrays, which broadcast against each other;
    the value and the flag are then arrays of the broadcast shape.  Scalar
    labels give a scalar value and flag.  Each entry is the same arithmetic,
    in the same order, as for its scalar labels, so it has the same bits.

    The orbital angular momentum between different levels is not part of the
    tabulated set; its value is computed from the ladder action and flagged
    ``beyond_table``.
    """
    l1, n1, l2, n2 = (np.asarray(a) for a in (l1, n1, l2, n2))
    if np.any((l1 < -n1) | (l2 < -n2) | (n1 < 0) | (n2 < 0)):
        raise ValueError("labels must satisfy n >= 0 and l >= -n")
    s = p.sign
    hb = p.hbar
    c = math.sqrt(hb * p.m * p.omega_c / 2.0)

    def d(a, bb):
        return np.where(a == bb, 1.0, 0.0)

    # guarded square roots: each factor is only evaluated where its Kronecker
    # condition holds, keeping out-of-band labels well defined
    def up(cond, arg):
        return np.sqrt(np.where(cond, arg, 0))

    beyond = False
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
        beyond = n1 != n2
        v = np.where(beyond, ladder, -s * hb * (2 * n1 + 1) * d(l1, l2))
    else:
        raise ValueError(f"unknown observable {name!r}")
    shape = np.broadcast_shapes(l1.shape, n1.shape, l2.shape, n2.shape)
    v = np.broadcast_to(v, shape)
    beyond = np.broadcast_to(beyond, shape)
    if not shape:
        return AngularElement(v.item(), bool(beyond))
    return AngularElement(v, beyond)


def change_of_basis(nplus: int, t1, p: PhysicalParams):
    """Coefficient <n+, n-|T1, E(m-)> of the basis change between the
    angular and translation eigenbases, diagonal factor delta(n-, m-) left
    to the caller:

    ``i^{n+} / sqrt(2^{n+} n+!) * (pi hbar m w)^{-1/4}
      * exp(-t1^2 / (2 hbar m w)) * H_{n+}(t1 / sqrt(hbar m w))``,

    the conjugate of the translation-eigenvalue profile
    :func:`~landaulab.waves.t1_basis_function`.  ``t1`` may be an array;
    each entry has the bits of its scalar call.

    The phase is anchored in the lowest level; see :func:`t1_fock_overlap`
    for the level-dependent phase required when combining with the explicit
    wave functions at n- > 0.
    """
    if nplus < 0:
        raise ValueError("nplus must be nonnegative")
    return np.conj(t1_basis_function(nplus, p).value(t1))


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
    partner observable plus the :func:`poly_operator` of its polynomial
    position term :func:`~landaulab.params.canonical_extra`."""
    partner = build_observable(CANONICAL_PARTNER[which], p, g.x0, b)
    extra = canonical_extra(which, g, p)
    monomials = position_monomials(p, b, extra.terms)
    return partner + poly_operator(extra, monomials, b)
