"""Classical planar dynamics of a charge in a uniform magnetic field:
analytic circular orbits, numerical integrators, conserved charges, and an
exact Poisson-bracket calculus on polynomial phase-space observables, which
are the four-variable member of the shared polynomial ring of
:mod:`landaulab.params`.  :func:`observables` is the one table that says
what each observable is; the Fock route (``fockspace.poly_operator``) and
the wave-function route (``waves.schrodinger_op``) quantise its entries.

The phase space is parametrised by the gauge-invariant pair (x, p) with the
magnetic bracket {p1, p2} = qB; canonical-coordinate statements are recovered
by the substitution p = pi - qA.  The orientation convention is eps_12 = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import (DegreeOverflowError, GaugeChoice, PhysicalParams,
                     Poly2, SparsePoly, vector_potential,
                     vector_potential_polys)

__all__ = [
    "MAX_STEPS",
    "NonFiniteOrbitError",
    "PhaseSpacePoint",
    "TrajectoryParams",
    "NoetherCharges",
    "analytic_trajectory",
    "integrate",
    "noether_charges",
    "magnetic_centre",
    "canonical_momenta",
    "PolyObservable",
    "poisson_bracket",
    "energy_observable",
    "translation_observable",
    "rotation_observable",
    "centre_observable",
    "observables",
]


# a classical-sim run peaks near 400 B per step, 750 B with its CSV
MAX_STEPS = 2 ** 20


class NonFiniteOrbitError(ValueError):
    """Raised when an integrated orbit leaves the finite double range."""


@dataclass(frozen=True)
class PhaseSpacePoint:
    """Position and velocity momentum (p = m dx/dt)."""

    x: tuple[float, float]
    p: tuple[float, float]

    def __post_init__(self):
        vals = (*self.x, *self.p)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("phase-space components must be finite")
        object.__setattr__(self, "x", (float(self.x[0]), float(self.x[1])))
        object.__setattr__(self, "p", (float(self.p[0]), float(self.p[1])))


@dataclass(frozen=True)
class TrajectoryParams:
    """Orbit data: energy, guiding-centre position, and phase time."""

    E: float
    xc: tuple[float, float] = (0.0, 0.0)
    t0: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.E < math.inf:
            raise ValueError("energy must be finite and nonnegative")
        if not all(map(math.isfinite, self.xc)):
            raise ValueError("guiding centre must be finite")


class NoetherCharges(NamedTuple):
    E: float
    T1: float
    T2: float
    M3: float


def analytic_trajectory(p: PhysicalParams, tp: TrajectoryParams,
                        t: float) -> PhaseSpacePoint:
    """Closed-form circular orbit with energy E about the centre xc:

    ``x(t) = xc + (1/w) sqrt(2E/m) (cos w(t-t0), -s sin w(t-t0))``,
    ``p(t) = -sqrt(2mE) (sin w(t-t0), s cos w(t-t0))``,

    with w the cyclotron frequency and s the orientation sign.
    """
    w, s = p.omega_c, p.sign
    ph = w * (t - tp.t0)
    r = math.sqrt(2.0 * tp.E / p.m) / w
    pa = math.sqrt(2.0 * p.m * tp.E)
    x = (tp.xc[0] + r * math.cos(ph), tp.xc[1] - s * r * math.sin(ph))
    mom = (-pa * math.sin(ph), -s * pa * math.cos(ph))
    return PhaseSpacePoint(x, mom)


def integrate(p: PhysicalParams, s0: PhaseSpacePoint, dt: float, n: int,
              method: str = "boris") -> np.ndarray:
    """Integrate the Lorentz-force flow for n steps of size dt.

    ``method="boris"`` uses the rotation-split step (exactly momentum-norm
    preserving); ``method="rk4"`` the classical Runge-Kutta step.  Returns
    the n+1 states including the initial one as an ``(n+1, 4)`` float64
    array with columns x1, x2, p1, p2; n is at most :data:`MAX_STEPS`.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not 1 <= n <= MAX_STEPS:
        raise ValueError(f"need between 1 and {MAX_STEPS} steps")
    if method == "boris":
        rows = _rotation_orbit(p, s0, dt, n)
    elif method == "rk4":
        rows = _rk4_orbit(p, s0, dt, n)
    else:
        raise ValueError(f"unknown method {method!r}")
    path = np.array(rows)
    if not np.isfinite(path).all():
        raise NonFiniteOrbitError("phase-space components must be finite")
    return path


def _rotation_orbit(p: PhysicalParams, s0: PhaseSpacePoint, dt: float,
                    n: int) -> list[tuple[float, float, float, float]]:
    """States of the rotation-split integrator for a uniform field.

    The momentum is rotated with the half-angle tangent construction, which
    is an exact rotation by (qB/m) dt and conserves |p| to round-off; the
    position drift uses the time integral of the rotating momentum so the
    step matches the exact flow of the uniform-field problem.
    """
    a = (p.qB / p.m) * dt
    tau = math.tan(0.5 * a)
    # half-angle rotation: p -> p + f * eps @ (p + tau * eps @ p)
    f = 2.0 * tau / (1.0 + tau * tau)
    # drift through the exactly rotating momentum: complex z' = exp(-i a) z
    rotating = a != 0.0
    if rotating:
        c0, c1 = (1.0 - math.cos(a)) / a, math.sin(a) / a
    h = dt / p.m
    (x1, x2), (p1, p2) = s0.x, s0.p
    out = [(x1, x2, p1, p2)]
    for _ in range(n):
        q1 = p1 + tau * p2
        q2 = p2 - tau * p1
        if rotating:
            dx1 = h * (c1 * p1 + c0 * p2)
            dx2 = h * (-c0 * p1 + c1 * p2)
        else:
            dx1, dx2 = h * p1, h * p2
        x1 += dx1
        x2 += dx2
        p1, p2 = p1 + f * q2, p2 - f * q1
        out.append((x1, x2, p1, p2))
    return out


def _rk4_orbit(p: PhysicalParams, s0: PhaseSpacePoint, dt: float,
               n: int) -> list[tuple[float, float, float, float]]:
    """States of the classical Runge-Kutta step for the Lorentz-force flow
    ``x' = p/m``, ``p' = (qB/m) eps p``; the right-hand side depends on the
    momentum alone, so the stage positions are never formed."""
    m = p.m
    k = p.qB / m
    nk = -k
    half, sixth = 0.5 * dt, dt / 6.0
    (x1, x2), (p1, p2) = s0.x, s0.p
    out = [(x1, x2, p1, p2)]
    for _ in range(n):
        # stage momenta a, b, c and their forces; the sum is
        # ((k1 + 2 k2) + 2 k3) + k4 as in the textbook step
        f1, g1 = k * p2, nk * p1
        a1, a2 = p1 + half * f1, p2 + half * g1
        f2, g2 = k * a2, nk * a1
        b1, b2 = p1 + half * f2, p2 + half * g2
        f3, g3 = k * b2, nk * b1
        c1, c2 = p1 + dt * f3, p2 + dt * g3
        x1 += sixth * (p1 / m + 2 * (a1 / m) + 2 * (b1 / m) + c1 / m)
        x2 += sixth * (p2 / m + 2 * (a2 / m) + 2 * (b2 / m) + c2 / m)
        p1 += sixth * (f1 + 2 * f2 + 2 * f3 + k * c2)
        p2 += sixth * (g1 + 2 * g2 + 2 * g3 + nk * c1)
        out.append((x1, x2, p1, p2))
    return out


def noether_charges(p: PhysicalParams, x0: tuple[float, float],
                    s: PhaseSpacePoint | np.ndarray) -> NoetherCharges:
    """Conserved charges at a phase-space point, relative to the origin x0:

    ``E = p^2/(2m)``, ``T_i = p_i - qB eps_ij u_j``,
    ``M3 = eps_ij u_i p_j + qB u^2 / 2`` with u = x - x0.

    ``s`` is a PhaseSpacePoint, giving float charges, or an array whose last
    axis holds x1, x2, p1, p2 (such as a path from :func:`integrate`),
    giving one array per charge with the same bits as the pointwise call.
    """
    if isinstance(s, PhaseSpacePoint):
        (x1, x2), (p1, p2) = s.x, s.p
    else:
        x1, x2, p1, p2 = np.moveaxis(np.asarray(s, dtype=float), -1, 0)
    u1, u2 = x1 - x0[0], x2 - x0[1]
    qb = p.qB
    e = (p1 * p1 + p2 * p2) / (2.0 * p.m)
    t1 = p1 - qb * u2
    t2 = p2 + qb * u1
    m3 = u1 * p2 - u2 * p1 + 0.5 * qb * (u1 * u1 + u2 * u2)
    return NoetherCharges(e, t1, t2, m3)


def magnetic_centre(p: PhysicalParams, x0: tuple[float, float],
                    T: tuple[float, float]) -> tuple[float, float]:
    """Guiding-centre position from the translation charges:
    ``xc_i = x0_i + eps_ij T_j / (qB)``."""
    qb = p.qB
    return x0[0] + T[1] / qb, x0[1] - T[0] / qb


def canonical_momenta(g: GaugeChoice, p: PhysicalParams,
                      s: PhaseSpacePoint) -> tuple[float, float]:
    """Gauge-variant canonical momenta pi_i = p_i + q A_i(x)."""
    a1, a2 = vector_potential(g, p, s.x)
    return s.p[0] + p.q * a1, s.p[1] + p.q * a2


# ---------------------------------------------------------------------------
# Polynomial phase-space observables and the magnetic Poisson bracket
# ---------------------------------------------------------------------------

# ring axes of the phase-space coordinates (u1, u2, p1, p2)
_U1, _U2, _P1, _P2 = 1, 2, 3, 4


class PolyObservable(SparsePoly):
    """Polynomial in the four phase-space coordinates (u1, u2, p1, p2);
    positions are relative to the chosen origin x0."""

    __slots__ = ()
    nvars = 4

    @classmethod
    def coordinate(cls, name: str):
        axis = {"u1": _U1, "u2": _U2, "p1": _P1, "p2": _P2}[name]
        return cls({tuple(int(a == axis) for a in range(1, cls.nvars + 1)): 1.0})

    @classmethod
    def from_position_poly(cls, poly: Poly2):
        return cls({(i, j, 0, 0): c for (i, j), c in poly.terms.items()})

    def __repr__(self):
        return f"PolyObservable({len(self.terms)} terms, degree {self.degree})"


def poisson_bracket(f: PolyObservable, g: PolyObservable, p: PhysicalParams,
                    max_degree: int = 16) -> PolyObservable:
    """Magnetic Poisson bracket on polynomial observables:

    ``{f, g} = sum_i (df/du_i dg/dp_i - df/dp_i dg/du_i)
               + qB (df/dp1 dg/dp2 - df/dp2 dg/dp1)``

    computed exactly over coefficients.  Raises DegreeOverflowError when the
    result would exceed ``max_degree``.
    """
    fu1, fu2 = f.diff(_U1), f.diff(_U2)
    fp1, fp2 = f.diff(_P1), f.diff(_P2)
    gu1, gu2 = g.diff(_U1), g.diff(_U2)
    gp1, gp2 = g.diff(_P1), g.diff(_P2)
    out = (fu1 * gp1 - fp1 * gu1) + (fu2 * gp2 - fp2 * gu2) \
        + p.qB * (fp1 * gp2 - fp2 * gp1)
    if out.degree > max_degree:
        raise DegreeOverflowError(
            f"bracket degree {out.degree} exceeds bound {max_degree}")
    return out


def energy_observable(p: PhysicalParams) -> PolyObservable:
    """E = (p1^2 + p2^2)/(2m)."""
    c = 1.0 / (2.0 * p.m)
    return PolyObservable({(0, 0, 2, 0): c, (0, 0, 0, 2): c})


def translation_observable(i: int, p: PhysicalParams) -> PolyObservable:
    """T_i = p_i - qB eps_ij u_j."""
    qb = p.qB
    if i == 1:
        return PolyObservable({(0, 0, 1, 0): 1.0, (0, 1, 0, 0): -qb})
    if i == 2:
        return PolyObservable({(0, 0, 0, 1): 1.0, (1, 0, 0, 0): qb})
    raise ValueError("component must be 1 or 2")


def rotation_observable(p: PhysicalParams) -> PolyObservable:
    """M3 = u1 p2 - u2 p1 + qB (u1^2 + u2^2)/2."""
    qb = p.qB
    return PolyObservable({
        (1, 0, 0, 1): 1.0,
        (0, 1, 1, 0): -1.0,
        (2, 0, 0, 0): 0.5 * qb,
        (0, 2, 0, 0): 0.5 * qb,
    })


def centre_observable(i: int, p: PhysicalParams,
                      x0: tuple[float, float] = (0.0, 0.0)) -> PolyObservable:
    """xc_i = x0_i + eps_ij T_j / (qB) as a phase-space polynomial."""
    qb = p.qB
    t = translation_observable(2 if i == 1 else 1, p)
    sgn = 1.0 if i == 1 else -1.0
    return PolyObservable.const(x0[i - 1]) + (sgn / qb) * t


def observables(p: PhysicalParams,
                g: GaugeChoice) -> dict[str, PolyObservable]:
    """The phase-space polynomial of each named observable, u = x - x0: H,
    T1, T2, M3, p1, p2, L3 = u1 p2 - u2 p1, xc1, xc2, x1, x2, u1, u2, and
    the gauge's canonical momenta pi_i = p_i + q A_i(u) and canonical
    angular momentum L3c = u1 pi2 - u2 pi1."""
    u1, u2, p1, p2 = map(PolyObservable.coordinate, ("u1", "u2", "p1", "p2"))
    pi1, pi2 = (pk + p.q * PolyObservable.from_position_poly(a)
                for pk, a in zip((p1, p2), vector_potential_polys(g, p.B)))
    return {"H": energy_observable(p), "T1": translation_observable(1, p),
            "T2": translation_observable(2, p), "M3": rotation_observable(p),
            "p1": p1, "p2": p2, "L3": u1 * p2 - u2 * p1,
            "xc1": centre_observable(1, p, g.x0), "x1": u1 + g.x0[0],
            "xc2": centre_observable(2, p, g.x0), "x2": u2 + g.x0[1],
            "u1": u1, "u2": u2, "pi1": pi1, "pi2": pi2,
            "L3c": u1 * pi2 - u2 * pi1}
