"""Classical planar dynamics of a charge in a uniform magnetic field:
analytic circular orbits, numerical integrators, conserved charges, and an
exact Poisson-bracket calculus on polynomial phase-space observables, which
are the four-variable member of the shared polynomial ring of
:mod:`landaulab.params`.  :func:`observables` is the one table that says
what each observable is.  The classical route evaluates its entries (the
charges of :func:`noether_charges`, the canonical momenta pi_i, the centres
xc_i); the Fock and the wave-function route quantise them.

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
                     Poly2, SparsePoly, vector_potential_polys)

__all__ = [
    "MAX_STEPS",
    "NonFiniteOrbitError",
    "PhaseSpacePoint",
    "TrajectoryParams",
    "NoetherCharges",
    "analytic_trajectory",
    "integrate",
    "noether_charges",
    "PolyObservable",
    "poisson_bracket",
    "energy_observable",
    "translation_observable",
    "rotation_observable",
    "centre_observable",
    "observables",
]


# a classical-sim run peaks near 260 B per step, with or without its CSV
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
    The flow depends on the momentum alone, so only it is stepped in a
    loop; the position increments are formed from it in blocks of
    ``_BLOCK`` rows, and the positions are their running sums
    (``np.add.accumulate``, left to right, so rounded as ``x += dx``).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not 1 <= n <= MAX_STEPS:
        raise ValueError(f"need between 1 and {MAX_STEPS} steps")
    orbit = {"boris": _rotation_orbit, "rk4": _rk4_orbit}.get(method)
    if orbit is None:
        raise ValueError(f"unknown method {method!r}")
    # a C extension, loaded by the first orbit rather than on import
    from array import array
    path = np.empty((n + 1, 4))
    path[0, :2] = s0.x
    m1, m2 = array("d", s0.p[:1]), array("d", s0.p[1:])
    # an orbit leaving the double range is refused below, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        step = orbit(p, s0, dt, n, m1, m2)
        path[:, 2], path[:, 3] = m1, m2
        del m1, m2
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            path[lo + 1:hi + 1, :2] = step(path[lo:hi, 2:])
        np.add.accumulate(path[:, :2], out=path[:, :2])
    if not np.isfinite(path).all():
        raise NonFiniteOrbitError("phase-space components must be finite")
    return path


# rows of position increments formed at once
_BLOCK = 2 ** 16


def _rotation_orbit(p: PhysicalParams, s0: PhaseSpacePoint, dt: float,
                    n: int, m1, m2):
    """Rotation-split integrator for a uniform field: appends p1, p2 of the
    n steps to the buffers m1, m2 holding s0's, and returns the map from
    the rows (p1, p2) of states to the rows (dx1, dx2) of their steps.

    The momentum is rotated with the half-angle tangent construction, which
    is an exact rotation by (qB/m) dt and conserves |p| to round-off; the
    position drift uses the time integral of the rotating momentum so the
    step matches the exact flow of the uniform-field problem.
    """
    a = (p.qB / p.m) * dt
    tau = math.tan(0.5 * a)
    # half-angle rotation: p -> p + f * eps @ (p + tau * eps @ p)
    f = 2.0 * tau / (1.0 + tau * tau)
    p1, p2 = s0.p
    for _ in range(n):
        p1, p2 = p1 + f * (p2 - tau * p1), p2 - f * (p1 + tau * p2)
        m1.append(p1)
        m2.append(p2)
    h = dt / p.m
    if a == 0.0:
        return lambda u: h * u
    # drift through the exactly rotating momentum: complex z' = exp(-i a) z;
    # the column c1 u2 + (-c0) u1 adds its two terms in either order alike
    c0, c1 = (1.0 - math.cos(a)) / a, math.sin(a) / a
    return lambda u: h * (c1 * u + [c0, -c0] * u[:, ::-1])


def _rk4_orbit(p: PhysicalParams, s0: PhaseSpacePoint, dt: float,
               n: int, m1, m2):
    """Classical Runge-Kutta step for the Lorentz-force flow ``x' = p/m``,
    ``p' = (qB/m) eps p``, filling and returning as :func:`_rotation_orbit`
    does; the stage momenta a, b, c are formed again for dx."""
    m = p.m
    k = p.qB / m
    nk = -k
    half, sixth = 0.5 * dt, dt / 6.0
    p1, p2 = s0.p
    for _ in range(n):
        # stage forces, summed ((k1 + 2 k2) + 2 k3) + k4 as in the textbook
        f1, g1 = k * p2, nk * p1
        f2, g2 = k * (p2 + half * g1), nk * (p1 + half * f1)
        f3, g3 = k * (p2 + half * g2), nk * (p1 + half * f2)
        c1, c2 = p1 + dt * f3, p2 + dt * g3
        p1 += sixth * (f1 + 2.0 * f2 + 2.0 * f3 + k * c2)
        p2 += sixth * (g1 + 2.0 * g2 + 2.0 * g3 + nk * c1)
        m1.append(p1)
        m2.append(p2)
    # the force (k p2, -k p1) of a row is rate * (p2, p1)
    rate = np.array([k, nk])

    def step(u):
        a = u + half * (rate * u[:, ::-1])
        b = u + half * (rate * a[:, ::-1])
        c = u + dt * (rate * b[:, ::-1])
        return sixth * (u / m + 2.0 * (a / m) + 2.0 * (b / m) + c / m)
    return step


def noether_charges(p: PhysicalParams, x0: tuple[float, float],
                    s: PhaseSpacePoint | np.ndarray) -> NoetherCharges:
    """Conserved charges at a phase-space point, relative to the origin x0:
    the polynomials H, T1, T2 and M3 of :func:`observables`, built alone,
    evaluated at (u, p) with u = x - x0.

    ``s`` is a PhaseSpacePoint, giving float charges, or an array whose last
    axis holds x1, x2, p1, p2 (such as a path from :func:`integrate`),
    giving one array per charge with the same bits as the pointwise call.
    """
    if isinstance(s, PhaseSpacePoint):
        (x1, x2), (p1, p2) = s.x, s.p
    else:
        x1, x2, p1, p2 = np.moveaxis(np.asarray(s, dtype=float), -1, 0)
    at = (x1 - x0[0], x2 - x0[1], p1, p2)
    return NoetherCharges(*(f(*at) for f in (
        energy_observable(p), translation_observable(1, p),
        translation_observable(2, p), rotation_observable(p))))


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
