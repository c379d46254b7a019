"""Truncated two-sector helicity Fock space: exact observable matrices,
interior-subspace commutator checks, closed-form matrix elements in the
angular-momentum eigenbasis, and the basis-change coefficients.

States |n+, n-> carry an intra-level quantum number n+ (guiding-centre
sector) and the level number n- (energy sector).  Truncation corrupts only
rows and columns near the cutoff, so every identity is checked on an
interior subspace whose margin covers the ladder excursions of the
operators involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import (CANONICAL_PARTNER, GaugeChoice, PhysicalParams, Poly2,
                     canonical_extra)
from .waves import check_quantum_number, hermite

__all__ = [
    "FockBasis",
    "FockOperator",
    "TruncationError",
    "ladder_ops",
    "build_observable",
    "position_monomials",
    "poly_operator",
    "interior_project",
    "interior_deviation",
    "commutator_check",
    "AngularElement",
    "angular_element",
    "change_of_basis",
    "t1_fock_overlap",
    "canonical_entries",
    "gauge_variant_matrix",
    "OBSERVABLE_NAMES",
]

OBSERVABLE_NAMES = ("H", "T1", "T2", "M3", "p1", "p2", "L3",
                    "xc1", "xc2", "x1", "x2")


class TruncationError(ValueError):
    """Raised when a requested margin or degree is incompatible with the
    basis truncation."""


@dataclass(frozen=True)
class FockBasis:
    """Tensor-product basis |n+, n-> with 0 <= n+- <= nmax per sector."""

    nmax: int

    def __post_init__(self):
        if self.nmax < 1:
            raise ValueError("nmax must be at least 1")

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

    def interior_indices(self, margin: int) -> np.ndarray:
        """Flat indices of states with n+- <= nmax - margin."""
        if margin < 0 or margin > self.nmax:
            raise TruncationError(f"margin {margin} out of range for nmax {self.nmax}")
        cut = self.nmax - margin
        k = self.nmax + 1
        idx = [i * k + j for i in range(cut + 1) for j in range(cut + 1)]
        return np.asarray(idx, dtype=int)


@dataclass(frozen=True)
class FockOperator:
    """Dense complex matrix on a FockBasis with ladder-excursion metadata
    (the largest step the operator takes in either sector)."""

    basis: FockBasis
    matrix: np.ndarray
    excursion: int = 0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise ValueError("matrix shape does not match basis dimension")
        if self.excursion < 0:
            raise ValueError("excursion must be nonnegative")
        object.__setattr__(self, "matrix", m)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.basis, self.matrix + other.matrix,
                            max(self.excursion, other.excursion))

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.basis, self.matrix - other.matrix,
                            max(self.excursion, other.excursion))

    def __mul__(self, scalar) -> "FockOperator":
        return FockOperator(self.basis, self.matrix * scalar, self.excursion)

    __rmul__ = __mul__

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.basis, self.matrix @ other.matrix,
                            self.excursion + other.excursion)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.basis, self.matrix.conj().T, self.excursion)

    def is_hermitian_exact(self) -> bool:
        return np.array_equal(self.matrix, self.matrix.conj().T)

    def element(self, bra: tuple[int, int], ket: tuple[int, int]) -> complex:
        return complex(self.matrix[self.basis.index(*bra), self.basis.index(*ket)])

    def _check(self, other: "FockOperator"):
        if other.basis.nmax != self.basis.nmax:
            raise ValueError("operators live on different bases")


def _single_ladder(n: int) -> np.ndarray:
    a = np.zeros((n + 1, n + 1))
    for k in range(1, n + 1):
        a[k - 1, k] = math.sqrt(k)
    return a


def ladder_ops(b: FockBasis):
    """(a+, a+^dag, a-, a-^dag) as FockOperators with unit excursion."""
    a = _single_ladder(b.nmax)
    eye = np.eye(b.nmax + 1)
    ap = FockOperator(b, np.kron(a, eye), 1)
    am = FockOperator(b, np.kron(eye, a), 1)
    return ap, ap.dagger(), am, am.dagger()


def sector_numbers(b: FockBasis):
    k = b.nmax + 1
    nplus = np.repeat(np.arange(k), k).astype(float)
    nminus = np.tile(np.arange(k), k).astype(float)
    return nplus, nminus


def build_observable(name: str, p: PhysicalParams, x0: tuple[float, float],
                     b: FockBasis, ladders=None) -> FockOperator:
    """Exact matrix of a physical observable on the truncated basis.

    Diagonal observables (H, M3) are written down entrywise; the rest are
    assembled from the helicity ladders, which a caller building several
    observables may pass in as ``ladder_ops(b)`` to build them once.  Every
    returned matrix is exactly Hermitian.
    """
    hw = p.hbar * p.omega_c
    s = p.sign
    c = math.sqrt(p.hbar * p.m * p.omega_c / 2.0)
    lam = p.magnetic_length
    nplus, nminus = sector_numbers(b)

    if name == "H":
        return FockOperator(b, np.diag(hw * (nminus + 0.5)).astype(complex), 0)
    if name == "M3":
        return FockOperator(b, np.diag(s * p.hbar * (nplus - nminus)).astype(complex), 0)

    if ladders is None:
        ladders = ladder_ops(b)
    ap, apd, am, amd = ladders
    if name == "T1":
        return FockOperator(b, 1j * c * (apd.matrix - ap.matrix), 1)
    if name == "T2":
        return FockOperator(b, (s * c) * (apd.matrix + ap.matrix), 1)
    if name == "p1":
        return FockOperator(b, 1j * c * (amd.matrix - am.matrix), 1)
    if name == "p2":
        return FockOperator(b, (-s * c) * (amd.matrix + am.matrix), 1)
    if name == "L3":
        x = apd.matrix @ amd.matrix
        m = -s * p.hbar * (np.diag(2.0 * nminus + 1.0) + x + x.conj().T)
        return FockOperator(b, m, 1)
    if name == "x1":
        m = (lam / math.sqrt(2.0)) * (ap.matrix + am.matrix)
        return FockOperator(b, x0[0] * np.eye(b.dim) + m + m.conj().T, 1)
    if name == "x2":
        m = (1j * s * lam / math.sqrt(2.0)) * (ap.matrix - am.matrix)
        return FockOperator(b, x0[1] * np.eye(b.dim) + m + m.conj().T, 1)
    if name == "xc1":
        t2 = build_observable("T2", p, x0, b, ladders)
        return FockOperator(b, x0[0] * np.eye(b.dim) + t2.matrix / p.qB, 1)
    if name == "xc2":
        t1 = build_observable("T1", p, x0, b, ladders)
        return FockOperator(b, x0[1] * np.eye(b.dim) - t1.matrix / p.qB, 1)
    raise ValueError(f"unknown observable {name!r}")


def position_monomials(p: PhysicalParams, b: FockBasis, keys):
    """Matrices of the position monomials (x1 - x0_1)^i (x2 - x0_2)^j, one
    per distinct ``(i, j)`` in ``keys``, yielded as ``((i, j), matrix)`` in
    sorted key order.

    Each is the full BLAS product ``pow1[i] @ pow2[j]`` of the power chains
    ``eye @ u @ u ...`` of the two position operators, so a monomial has the
    same bits whichever polynomial needs it.  The chains are built at once,
    each monomial only when it is requested, so a caller keeping a few
    entries of each never holds all of them.
    """
    keys = sorted(set(keys))
    deg = max((i + j for i, j in keys), default=0)
    if deg > b.nmax:
        raise TruncationError(
            f"polynomial degree {deg} exceeds truncation nmax={b.nmax}")
    u1 = build_observable("x1", p, (0.0, 0.0), b).matrix
    u2 = build_observable("x2", p, (0.0, 0.0), b).matrix
    pow1 = [np.eye(b.dim, dtype=complex)]
    for _ in range(max((i for i, _ in keys), default=0)):
        pow1.append(pow1[-1] @ u1)
    pow2 = [np.eye(b.dim, dtype=complex)]
    for _ in range(max((j for _, j in keys), default=0)):
        pow2.append(pow2[-1] @ u2)
    return (((i, j), pow1[i] @ pow2[j]) for (i, j) in keys)


def _poly_sum(f: Poly2, monomials, shape) -> np.ndarray:
    """Sum of ``f.terms[k] * monomials[k]`` from zeros, in sorted term order,
    over whatever entries the monomial arrays hold."""
    m = np.zeros(shape, dtype=complex)
    for key in sorted(f.terms):
        m += f.terms[key] * monomials[key]
    return m


def poly_operator(f: Poly2, p: PhysicalParams, x0: tuple[float, float],
                  b: FockBasis) -> FockOperator:
    """Matrix of f(x1 - x0_1, x2 - x0_2) on the truncated basis, assembled
    from :func:`position_monomials` in a fixed monomial order.

    The excursion equals the total degree of f, so the degree must not
    exceed the truncation.
    """
    monomials = dict(position_monomials(p, b, f.terms))
    return FockOperator(b, _poly_sum(f, monomials, (b.dim, b.dim)),
                        max(f.degree, 0))


def interior_project(op: FockOperator, margin: int) -> np.ndarray:
    """Submatrix over the states at least ``margin`` below the cutoff in
    both sectors (rows and columns)."""
    idx = op.basis.interior_indices(margin)
    return op.matrix[np.ix_(idx, idx)]


def interior_deviation(op: FockOperator, margin: int) -> float:
    """Largest magnitude of the interior-projected matrix."""
    sub = interior_project(op, margin)
    return float(np.max(np.abs(sub))) if sub.size else 0.0


def commutator_check(a: FockOperator, b: FockOperator, expected: FockOperator,
                     margin: int) -> float:
    """Max deviation of [a, b] - expected on the interior subspace.

    Requires ``margin >= a.excursion + b.excursion`` so that the truncated
    products are exact on the retained rows and columns.
    """
    if margin < a.excursion + b.excursion:
        raise TruncationError(
            f"margin {margin} too small for excursions "
            f"{a.excursion}+{b.excursion}")
    comm = a @ b - b @ a
    diff = FockOperator(comm.basis, comm.matrix - expected.matrix,
                        comm.excursion)
    return interior_deviation(diff, margin)


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


def change_of_basis(nplus: int, t1: float, p: PhysicalParams) -> complex:
    """Coefficient <n+, n-|T1, E(m-)> of the basis change between the
    angular and translation eigenbases, diagonal factor delta(n-, m-) left
    to the caller:

    ``i^{n+} / sqrt(2^{n+} n+!) * (pi hbar m w)^{-1/4}
      * exp(-t1^2 / (2 hbar m w)) * H_{n+}(t1 / sqrt(hbar m w))``.

    The phase is anchored in the lowest level; see :func:`t1_fock_overlap`
    for the level-dependent phase required when combining with the explicit
    wave functions at n- > 0.
    """
    if nplus < 0:
        raise ValueError("nplus must be nonnegative")
    check_quantum_number(nplus, "nplus")
    sig2 = p.hbar * p.m * p.omega_c
    y = t1 / math.sqrt(sig2)
    h = hermite(nplus, y)
    norm = 1.0 / math.sqrt(2.0 ** nplus * math.factorial(nplus))
    return (1j ** nplus) * norm * (math.pi * sig2) ** -0.25 \
        * math.exp(-0.5 * y * y) * h


def t1_fock_overlap(nplus: int, nminus: int, t1: float,
                    p: PhysicalParams) -> complex:
    """Full overlap <n+, n-|T1, E(n-)> consistent with the explicit wave
    functions of both bases: the closed-form coefficient times the level
    phase (i s)^{n-}.

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


def canonical_entries(which: str, g: GaugeChoice, p: PhysicalParams,
                      partner: np.ndarray, monomials) -> np.ndarray:
    """Entries of a gauge-variant canonical operator (pi1, pi2 or L3c):
    ``partner`` holds entries of its gauge-invariant partner observable and
    ``monomials`` maps every monomial of its polynomial position term
    :func:`~landaulab.params.canonical_extra` to the same entries of the
    monomial's matrix.  The polynomial term is summed as in
    :func:`poly_operator`, then added to the partner, so every entry has the
    bits of the full matrix's."""
    return partner + _poly_sum(canonical_extra(which, g, p), monomials,
                               partner.shape)


def gauge_variant_matrix(which: str, g: GaugeChoice, p: PhysicalParams,
                         b: FockBasis) -> FockOperator:
    """Matrix of a gauge-variant canonical operator (pi1, pi2 or L3c): the
    :func:`canonical_entries` of every entry."""
    extra = canonical_extra(which, g, p)
    partner = build_observable(CANONICAL_PARTNER[which], p, g.x0, b)
    monomials = dict(position_monomials(p, b, extra.terms))
    return FockOperator(
        b, canonical_entries(which, g, p, partner.matrix, monomials),
        max(partner.excursion, extra.degree))
