"""Closed-form wave functions with exact analytic derivatives, gauge-phase
machinery, position-space differential operators, and the one-dimensional
translation-eigenvalue representation of the intra-level observables.  An
observable's operator is :func:`schrodinger_op` of its polynomial in
``classical.observables``, with p = -i hbar grad - q A in the gauge.

Every wave function handled here factors as

    coeff * P(u) * exp(-Q(u)) * exp(i Phi(u)) * S(u),

with P a complex bivariate polynomial, Q and Phi real polynomials in the
shifted coordinates u = x - x0, and S an optional Hermite or Laguerre factor
in a polynomial argument.  Values and first and second derivatives follow
from the product rule together with the derivative recurrences
H'_n = 2n H_{n-1} and d/dx L^m_n = -L^{m+1}_{n-1}, so no finite differences
enter any production path; every jet is taken at u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .classical import observables
from .params import (DegreeOverflowError, GaugeChoice, PhysicalParams, Poly2,
                     vector_potential_polys)

__all__ = [
    "MAX_QUANTUM_NUMBER",
    "QuantumNumberError",
    "check_quantum_number",
    "hermite",
    "laguerre",
    "SpecialFactor",
    "WaveForm",
    "WaveJet",
    "t1_state",
    "fock_state",
    "plane_wave",
    "gauge_phase",
    "DiffOpSpec",
    "schrodinger_op",
    "gauge_connection",
    "position_ops",
    "phase_shifted",
    "t1_basis_function",
    "t1rep_op",
]


# Largest quantum number the closed forms accept.  Against 50-digit mpmath
# the angular states fock_state(n+, n-) stay within 1e-10 of their peak
# magnitude up to |l| = 40 (3.4e-11; 1.5e-10 at |l| = 45, 4.9e-8 at 60): the
# binomial expansion of the angular polynomial cancels off the axes.  The
# translation states and basis-change coefficients hold 1e-14 there.
MAX_QUANTUM_NUMBER = 40


class QuantumNumberError(ValueError):
    """Raised for a quantum number above :data:`MAX_QUANTUM_NUMBER`, beyond
    which the closed forms are not validated."""


def check_quantum_number(n: int, what: str):
    """Refuse a quantum number above :data:`MAX_QUANTUM_NUMBER`."""
    if n > MAX_QUANTUM_NUMBER:
        raise QuantumNumberError(
            f"{what} {n} exceeds the validated maximum {MAX_QUANTUM_NUMBER}")


# ---------------------------------------------------------------------------
# Special-function evaluation by stable upward recurrence
# ---------------------------------------------------------------------------


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n by the three-term recurrence;
    vectorised over numpy input."""
    return _hermite_tail(n, x)[0]


def _hermite_tail(n: int, x):
    """``(H_n, H_{n-1}, H_{n-2})`` from one run of the recurrence, each with
    the bits of its own :func:`hermite` call; a negative order reads 0*x."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    hmm, hm, h = 0.0 * x, 0.0 * x, 1.0 + 0.0 * x
    for k in range(n):
        hmm, hm, h = hm, h, 2.0 * x * h - 2.0 * k * hm
    return h, hm, hmm


def laguerre(n: int, m: int, x):
    """Generalised Laguerre polynomial L^m_n by upward recurrence in n."""
    if n < 0 or m < 0:
        raise ValueError("orders must be nonnegative")
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    lm, l = 0.0 * x, 1.0 + 0.0 * x
    for k in range(n):
        lm, l = l, ((2 * k + m + 1 - x) * l - (k + m) * lm) / (k + 1)
    return l


# ---------------------------------------------------------------------------
# Factored wave functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialFactor:
    """Scalar special-function factor S = f(arg(u)) with f a Hermite or
    Laguerre polynomial; derivative values follow the closed recurrences."""

    kind: str           # "hermite" | "laguerre"
    n: int
    arg: Poly2
    m: int = 0          # Laguerre upper index

    def chain_values(self, gval, order: int = 2) -> list:
        """[f(g), f'(g), f''(g)] at argument values gval, up to ``order``;
        a derivative of order above n is 0 * g."""
        n, m = self.n, self.m
        if self.kind == "hermite":
            h = _hermite_tail(n, gval)  # (H_n, H_{n-1}, H_{n-2})
            fs = (lambda: h[0], lambda: 2.0 * n * h[1],
                  lambda: 4.0 * n * (n - 1) * h[2])
        elif self.kind == "laguerre":
            fs = (lambda: laguerre(n, m, gval),
                  lambda: -laguerre(n - 1, m + 1, gval),
                  lambda: laguerre(n - 2, m + 2, gval))
        else:
            raise ValueError(f"unknown special factor {self.kind!r}")
        return [fs[d]() if n >= d else 0.0 * gval for d in range(order + 1)]


def _partials(poly: Poly2, u1, u2, order: int) -> tuple:
    """``(d1, d2)`` of ``poly`` at shifted coordinates, then, at order 2,
    ``(d11, d12, d22)``."""
    p1, p2 = poly.diff(1), poly.diff(2)
    first = (p1(u1, u2), p2(u1, u2))
    if order < 2:
        return first
    return first + (p1.diff(1)(u1, u2), p1.diff(2)(u1, u2),
                    p2.diff(2)(u1, u2))


class WaveJet(NamedTuple):
    """Value and derivatives up to second order at a set of points; the
    slots above the order the jet was taken to are None."""

    f: np.ndarray
    f1: np.ndarray | None = None
    f2: np.ndarray | None = None
    f11: np.ndarray | None = None
    f12: np.ndarray | None = None
    f22: np.ndarray | None = None


@dataclass(frozen=True)
class WaveForm:
    """coeff * poly(u) * exp(-gauss(u)) * exp(i phase(u)) * special(u),
    anchored at the plane origin of its gauge.  :meth:`jet` is its one
    evaluation: the value is the order-0 jet's."""

    coeff: complex
    origin: tuple[float, float]
    poly: Poly2 = field(default_factory=lambda: Poly2.const(1.0))
    gauss: Poly2 = field(default_factory=Poly2.zero)
    phase: Poly2 = field(default_factory=Poly2.zero)
    special: SpecialFactor | None = None

    def shifted(self, x1, x2):
        return x1 - self.origin[0], x2 - self.origin[1]

    @cached_property
    def exponent(self) -> Poly2:
        """R = -Q + i Phi, built once per wave function; its coefficients,
        and so its values and exp, are real when the phase is zero."""
        return -1.0 * self.gauss + complex(0.0, 1.0) * self.phase

    @cached_property
    def degree(self) -> int:
        """Total degree of the polynomial part: the polynomial times the
        special factor."""
        degree = self.poly.degree
        if self.special is not None:
            degree += self.special.n * self.special.arg.degree
        return degree

    @cached_property
    def slope(self) -> int:
        """The degree each derivative can add to the polynomial part: that
        of R' for the exponent R."""
        return max(self.exponent.degree - 1, 0)

    def value(self, x1, x2):
        """The value at plane points: ``jet(*shifted(x1, x2), 0).f``."""
        return self.jet(*self.shifted(x1, x2), 0).f

    def jet(self, u1, u2, order: int = 2) -> WaveJet:
        """Analytic value and derivatives up to ``order`` (0, 1 or 2) at the
        shifted coordinates (u1, u2); the slots above ``order`` are None,
        and each slot has the same bits at every order that holds it."""
        A = self.poly(u1, u2)
        E = np.exp(self.exponent(u1, u2))
        f = self.coeff * A * E
        if self.special is not None:
            S, *chain = self.special.chain_values(self.special.arg(u1, u2),
                                                  order)
            f = f * S
        if not order:
            return WaveJet(f)
        # polynomial factor and exponent R = -Q + i Phi: derivatives
        A1, A2, *A_2 = _partials(self.poly, u1, u2, order)
        R1, R2, *R_2 = _partials(self.exponent, u1, u2, order)
        # special factor via chain rule
        if self.special is not None:
            g1, g2, *g_2 = _partials(self.special.arg, u1, u2, order)
            fp = chain[0]
            S1, S2 = fp * g1, fp * g2
        else:
            S = 1.0 + 0.0 * (u1 + u2)
            S1 = S2 = 0.0 * S
        C = self.coeff
        f1 = C * E * (A1 * S + A * R1 * S + A * S1)
        f2 = C * E * (A2 * S + A * R2 * S + A * S2)
        if order == 1:
            return WaveJet(f, f1, f2)
        (A11, A12, A22), (R11, R12, R22) = A_2, R_2
        if self.special is not None:
            (g11, g12, g22), fpp = g_2, chain[1]
            S11 = fpp * g1 * g1 + fp * g11
            S12 = fpp * g1 * g2 + fp * g12
            S22 = fpp * g2 * g2 + fp * g22
        else:
            S11 = S12 = S22 = S1
        f11 = C * E * (A11 * S + 2 * A1 * R1 * S + 2 * A1 * S1
                       + A * (R11 + R1 * R1) * S + 2 * A * R1 * S1 + A * S11)
        f22 = C * E * (A22 * S + 2 * A2 * R2 * S + 2 * A2 * S2
                       + A * (R22 + R2 * R2) * S + 2 * A * R2 * S2 + A * S22)
        f12 = C * E * (A12 * S + A1 * R2 * S + A1 * S2 + A2 * R1 * S
                       + A * (R12 + R1 * R2) * S + A * R1 * S2
                       + A2 * S1 + A * R2 * S1 + A * S12)
        return WaveJet(f, f1, f2, f11, f12, f22)


# ---------------------------------------------------------------------------
# The two eigenstate families
# ---------------------------------------------------------------------------


def t1_state(g: GaugeChoice, p: PhysicalParams, t1: float, n: int) -> WaveForm:
    """Joint eigenstate of the first translation charge (eigenvalue t1) and
    the energy (level n), delta-normalised in t1.

    The factored form is gauge phase x plane wave in u1 x normalised
    Hermite-Gaussian in x2 centred on the guiding-centre ordinate
    x0_2 - t1/(qB).
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    check_quantum_number(n, "level")
    hb, mw = p.hbar, p.m * p.omega_c
    d = t1 / p.qB                      # x0_2 - centre ordinate
    c2 = 0.5 * mw / hb
    gauss = Poly2({(0, 2): c2, (0, 1): 2.0 * c2 * d, (0, 0): c2 * d * d})
    phase = (1.0 / hb) * (Poly2.monomial(1, 1, 0.5 * (1.0 - g.alpha) * p.qB)
                          + p.q * g.phi + Poly2.monomial(1, 0, t1))
    coeff = (2.0 * math.pi * hb) ** -0.5 * (mw / (math.pi * hb)) ** 0.25 \
        / math.sqrt(2.0 ** n * math.factorial(n))
    zarg = Poly2({(0, 1): math.sqrt(mw / hb), (0, 0): math.sqrt(mw / hb) * d})
    return WaveForm(coeff=coeff, origin=g.x0, gauss=gauss, phase=phase,
                    special=SpecialFactor("hermite", n, zarg))


def fock_state(g: GaugeChoice, p: PhysicalParams, nplus: int,
               nminus: int) -> WaveForm:
    """Helicity Fock state |n+, n-> in the given gauge: gauge phase times
    the Laguerre-Gaussian angular wave function.

    The angular factor exp(i s l theta) v^|l| is carried as the complex
    polynomial (sqrt(m w / 2 hbar) (u1 + i s sgn(l) u2))^|l|, which removes
    the polar-coordinate singularity from every evaluation path.
    """
    if nplus < 0 or nminus < 0:
        raise ValueError("occupation numbers must be nonnegative")
    check_quantum_number(max(nplus, nminus), "occupation number")
    hb, mw, s = p.hbar, p.m * p.omega_c, p.sign
    n = min(nplus, nminus)
    ell = nplus - nminus
    v2 = Poly2({(2, 0): 0.5 * mw / hb, (0, 2): 0.5 * mw / hb})
    gauss = 0.5 * v2
    phase = (p.q / hb) * g.phibar(p.B)
    coeff = math.sqrt(mw / (2.0 * math.pi * hb)) * (-1.0) ** n \
        * math.sqrt(math.factorial(n) / math.factorial(n + abs(ell)))
    if ell != 0:
        sgn = s * (1 if ell > 0 else -1)
        w = Poly2({(1, 0): math.sqrt(0.5 * mw / hb),
                   (0, 1): 1j * sgn * math.sqrt(0.5 * mw / hb)})
        poly = w ** abs(ell)
    else:
        poly = Poly2.const(1.0)
    return WaveForm(coeff=coeff, origin=g.x0, poly=poly, gauss=gauss,
                    phase=phase,
                    special=SpecialFactor("laguerre", n, v2, m=abs(ell)))


def plane_wave(k: tuple[float, float], hbar: float,
               origin: tuple[float, float] = (0.0, 0.0)) -> WaveForm:
    """exp(i k.u / hbar); useful as a momentum eigenfunction in tests."""
    phase = Poly2({(1, 0): k[0] / hbar, (0, 1): k[1] / hbar})
    return WaveForm(coeff=1.0, origin=origin, phase=phase)


def gauge_phase(delta: Poly2, q: float, hbar: float, u1, u2):
    """Unit-modulus factor exp(i q delta(u) / hbar) relating wave functions
    in two gauges; takes shifted coordinates."""
    return np.exp(1j * (q / hbar) * delta(u1, u2))


def phase_shifted(psi: WaveForm, lam: Poly2, hbar: float) -> WaveForm:
    """exp(-i lam(u)/hbar) * psi, the re-phased wave function that pairs
    with the flat connection grad(lam)."""
    return replace(psi, phase=psi.phase + (-1.0 / hbar) * lam)


# ---------------------------------------------------------------------------
# Differential operators with polynomial coefficients, order <= 2
# ---------------------------------------------------------------------------

_ZERO = Poly2.zero()


@dataclass(frozen=True)
class DiffOpSpec:
    """c(u) + b1 d1 + b2 d2 + a11 d1^2 + a12 d1 d2 + a22 d2^2 with complex
    polynomial coefficients in the shifted coordinates."""

    c: Poly2 = _ZERO
    b1: Poly2 = _ZERO
    b2: Poly2 = _ZERO
    a11: Poly2 = _ZERO
    a12: Poly2 = _ZERO
    a22: Poly2 = _ZERO

    ORDERS = (0, 1, 1, 2, 2, 2)  # of the WaveJet slots, f, f1, ..., f22

    @property
    def coefficients(self) -> tuple[Poly2, ...]:
        """The coefficient of each WaveJet slot, in slot order."""
        return (self.c, self.b1, self.b2, self.a11, self.a12, self.a22)

    def nonzero(self) -> list[tuple[int, int, Poly2]]:
        """``(slot, order, coefficient)`` of each nonzero coefficient."""
        return [(slot, order, poly) for slot, (order, poly) in enumerate(
            zip(self.ORDERS, self.coefficients)) if not poly.is_zero()]

    @property
    def order(self) -> int:
        return max((order for _, order, _ in self.nonzero()), default=0)

    def terms(self, u) -> list[tuple[int, np.ndarray]]:
        """``(slot, array)`` of c and of each nonzero other coefficient at
        shifted coordinates ``u``: what :meth:`apply_jet` multiplies into
        the jet slots."""
        return [(slot, poly(*u)) for slot, poly in enumerate(self.coefficients)
                if not slot or not poly.is_zero()]

    def apply(self, psi: WaveForm, x1, x2):
        """The operator applied to ``psi`` at plane points."""
        u = psi.shifted(x1, x2)
        return self.apply_jet(psi.jet(*u, self.order), u)

    def apply_jet(self, jet: WaveJet, shifted_coords, terms=None):
        """c f plus each nonzero other term, in slot order, from the
        operator's :meth:`terms` at the jet's shifted coordinates; a caller
        applying it to many jets passes them, evaluated once."""
        (_, c), *rest = terms or self.terms(shifted_coords)
        out = c * jet.f
        for slot, arr in rest:
            out = out + arr * jet[slot]
        return out

    def __add__(self, other: "DiffOpSpec") -> "DiffOpSpec":
        return DiffOpSpec(*(a + b for a, b in zip(self.coefficients,
                                                  other.coefficients)))

    def __sub__(self, other: "DiffOpSpec") -> "DiffOpSpec":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "DiffOpSpec":
        return DiffOpSpec(*(poly * scalar for poly in self.coefficients))

    __rmul__ = __mul__

    def compose(self, other: "DiffOpSpec") -> "DiffOpSpec":
        """Operator product self(other(.)); the combined order must stay
        within two."""
        if self.order + other.order > 2:
            raise ValueError("composition exceeds second order")
        c, b1, b2, a11, a12, a22 = self.coefficients
        cp, bp1, bp2, ap11, ap12, ap22 = other.coefficients
        rc = (c * cp + b1 * cp.diff(1) + b2 * cp.diff(2)
              + a11 * cp.diff(1).diff(1) + a12 * cp.diff(1).diff(2)
              + a22 * cp.diff(2).diff(2))
        rb1 = (c * bp1 + b1 * cp + b1 * bp1.diff(1) + b2 * bp1.diff(2)
               + 2.0 * a11 * cp.diff(1) + a12 * cp.diff(2))
        rb2 = (c * bp2 + b2 * cp + b1 * bp2.diff(1) + b2 * bp2.diff(2)
               + a12 * cp.diff(1) + 2.0 * a22 * cp.diff(2))
        ra11 = c * ap11 + b1 * bp1 + a11 * cp
        ra12 = c * ap12 + b1 * bp2 + b2 * bp1 + a12 * cp
        ra22 = c * ap22 + b2 * bp2 + a22 * cp
        return DiffOpSpec(rc, rb1, rb2, ra11, ra12, ra22)


def schrodinger_op(f, conn: tuple[Poly2, Poly2], hbar: float) -> DiffOpSpec:
    """The operator of a phase-space polynomial f in (u1, u2, p1, p2) on wave
    functions: u_i multiplies and p_i is P_i = -i hbar d_i + conn_i(u).  A
    key with momentum factors is Weyl-symmetrised, as in
    ``fockspace.position_monomials``: u^a p_j is u^a P_j - (i hbar / 2)
    d_j u^a and p_i p_j is (P_i P_j + P_j P_i) / 2; above degree 2 it raises
    :class:`DegreeOverflowError`.  Each coefficient is summed from zero over
    the keys of f in sorted order."""
    mih = complex(0.0, -hbar)
    slots = [{} for _ in DiffOpSpec.ORDERS]
    for key in sorted(f.terms):
        u, axes = key[:2], [a for a in (0, 1) for _ in range(key[2 + a])]
        if axes and sum(key) > 2:
            raise DegreeOverflowError(f"Weyl quantisation is exact only up "
                                      f"to degree 2: {key}")
        if not axes:  # (slot, terms) of the key's operator
            parts = [(0, {u: 1.0})]
        elif len(axes) == 1:
            a = axes[0]
            parts = [(0, {(i + u[0], j + u[1]): v
                          for (i, j), v in conn[a].terms.items()}),
                     (a + 1, {u: mih})]
            if u[a]:  # u_a p_a: the Weyl term -(i hbar / 2) d_a u_a
                parts.append((0, {(0, 0): 0.5 * mih}))
        else:
            a, b = axes
            cross = conn[a] * conn[b] + (0.5 * mih) * (
                conn[b].diff(a + 1) + conn[a].diff(b + 1))
            parts = [(0, cross.terms), (a + 1, (mih * conn[b]).terms),
                     (b + 1, (mih * conn[a]).terms),
                     (3 + a + b, {(0, 0): mih * mih})]
        c = f.terms[key]
        for slot, terms in parts:
            acc = slots[slot]
            for k, v in terms.items():
                acc[k] = acc.get(k, 0) + c * v
    return DiffOpSpec(*map(Poly2, slots))


def gauge_connection(g: GaugeChoice, p: PhysicalParams) -> tuple[Poly2, Poly2]:
    """-q A(u), the connection of the momentum in the gauge g."""
    return tuple((-p.q) * a for a in vector_potential_polys(g, p.B))


def position_ops(names, g: GaugeChoice,
                 p: PhysicalParams) -> dict[str, DiffOpSpec]:
    """:func:`schrodinger_op` of each named entry of one table
    ``classical.observables(p, g)``, with the connection of the gauge g."""
    f, conn = observables(p, g), gauge_connection(g, p)
    return {name: schrodinger_op(f[name], conn, p.hbar) for name in names}


# ---------------------------------------------------------------------------
# One-dimensional representation on functions of the translation eigenvalue
# ---------------------------------------------------------------------------


def t1_basis_function(nplus: int, p: PhysicalParams) -> WaveForm:
    """chi_{n+}(t): the translation-eigenvalue profile <T1, E_n|n+, n-=n>
    shared by all levels up to the constant level phase, as a wave form in
    u1 = t alone, read as ``value(t, 0.0)``: Gaussian t^2/(2 sigma^2) and
    special factor H_{n+}(t/sigma), with sigma = sqrt(hbar m w)."""
    check_quantum_number(nplus, "nplus")
    sig = p.momentum_scale
    coeff = (-1j) ** nplus / math.sqrt(2.0 ** nplus * math.factorial(nplus)) \
        * (math.pi * sig * sig) ** -0.25
    return WaveForm(coeff=coeff, origin=(0.0, 0.0),
                    gauss=Poly2.monomial(2, 0, 0.5 / (sig * sig)),
                    special=SpecialFactor("hermite", nplus,
                                          Poly2.monomial(1, 0, 1.0 / sig)))


def t1rep_op(name: str, n: int, p: PhysicalParams) -> DiffOpSpec:
    """Action of an intra-level observable at level n on functions of the
    translation eigenvalue t = u1, read off the delta-kernel matrix elements
    (apply it to the jet of :func:`t1_basis_function` at (t, 0)): T1 is t,
    T2 is i s hbar m w d/dt, and M3 is -s hbar^2 m w / 2 d^2/dt^2
    + s hbar (t^2/(2 hbar m w) - (n+1/2))."""
    s, hb, mw = p.sign, p.hbar, p.m * p.omega_c
    if name == "T1":
        return DiffOpSpec(c=Poly2.variable(1))
    if name == "T2":
        return DiffOpSpec(b1=Poly2.const(1j * s * hb * mw))
    if name == "M3":
        return DiffOpSpec(
            c=(s * hb) * (Poly2.monomial(2, 0, 1.0 / (2.0 * hb * mw))
                          - (n + 0.5)),
            a11=Poly2.const(-0.5 * s * hb * hb * mw))
    raise ValueError(f"unknown intra-level observable {name!r}")
