"""Reproducible verification campaigns over the library, producing
structured reports: operator-algebra checks on the truncated Fock space,
cross-gauge invariance scans, closed-form/matrix/quadrature reproduction of
the matrix-element tables, basis-change checks, classical-dynamics checks,
and the flat-connection representation demo.  Running maxima of deviations
use ``np.maximum``, which keeps a NaN that ``max`` would drop.
"""

from __future__ import annotations

import math

import numpy as np

from . import classical as cl
from . import fockspace as fk
from . import quadrature as quad
from . import waves as wv
from .params import (CANONICAL_PARTNER, GaugeChoice, OriginMismatchError,
                     PhysicalParams, Poly2, canonical_extra, format_poly,
                     gauge_delta)
from .report import VerificationReport

__all__ = [
    "ALGEBRA_TOL",
    "QUAD_TOL",
    "DRIFT_TOL",
    "default_gauges",
    "run_verify_algebra",
    "run_gauge_scan",
    "run_reproduce_tables",
    "run_basis_change",
    "run_classical_sim",
    "run_heisenberg_demo",
]

ALGEBRA_TOL = 1e-12
QUAD_TOL = 1e-8
DRIFT_TOL = 1e-8
EXACT = 0.0
TABLE_INDEX_TOP = 6  # largest level and angular index of the tables


def _params_dict(p: PhysicalParams) -> dict:
    return {"m": p.m, "q": p.q, "B": p.B, "hbar": p.hbar,
            "omega_c": p.omega_c, "s": p.sign}


def _gauge_dict(g: GaugeChoice) -> dict:
    return {"alpha": g.alpha, "phi": format_poly(g.phi), "x0": list(g.x0)}


def default_gauges(seed: int, x0=(0.0, 0.0)) -> list[GaugeChoice]:
    """Five fixed shear values plus a seeded random quadratic and cubic
    gauge function; all centred at the same origin."""
    gauges = [GaugeChoice(a, x0) for a in (-1.0, 0.0, 0.37, 1.0, 2.0)]
    rng = np.random.default_rng(seed)
    quad_terms = {(i, j): float(rng.uniform(-0.1, 0.1))
                  for i in range(3) for j in range(3) if 0 < i + j <= 2}
    cubic_terms = {(i, j): float(rng.uniform(-0.05, 0.05))
                   for i in range(4) for j in range(4) if 0 < i + j <= 3}
    gauges.append(GaugeChoice(0.2, x0, Poly2(quad_terms)))
    gauges.append(GaugeChoice(-0.6, x0, Poly2(cubic_terms)))
    return gauges


# ---------------------------------------------------------------------------
# Operator algebra on the truncated Fock space
# ---------------------------------------------------------------------------


def run_verify_algebra(p: PhysicalParams, nmax: int = 16, margin: int = 3,
                       tol: float = ALGEBRA_TOL,
                       x0=(0.0, 0.0)) -> VerificationReport:
    """Full commutator suite and the quantum charge relation on the interior
    of a truncated two-sector basis."""
    rep = VerificationReport(
        campaign="verify-algebra", params=_params_dict(p), gauges=[],
        settings={"nmax": nmax, "margin": margin, "grid": None,
                  "scheme": None, "seed": None})
    b = fk.FockBasis(nmax)
    ladders = fk.ladder_ops(b)
    ops = {name: fk.build_observable(name, p, x0, b, ladders)
           for name in fk.OBSERVABLE_NAMES}
    del ladders
    eye = np.eye(b.dim, dtype=complex)
    hb, s, w, qb = p.hbar, p.sign, p.omega_c, p.qB

    for name, op in ops.items():
        dev = float(np.max(np.abs(op.matrix - op.matrix.conj().T)))
        rep.add(f"hermitian:{name}", dev, EXACT)

    nplus, nminus = fk.sector_numbers(b)
    spec_dev = float(np.max(np.abs(np.diag(ops["H"].matrix).real
                                   - hb * w * (nminus + 0.5))))
    rep.add("spectrum:landau-levels", spec_dev, EXACT)
    hdiag = np.diag(ops["H"].matrix).real.reshape(nmax + 1, nmax + 1)
    rep.add("spectrum:degeneracy",
            float(np.max(np.abs(hdiag - hdiag[0][None, :]))), EXACT)

    u1 = ops["x1"].matrix - x0[0] * eye
    u2 = ops["x2"].matrix - x0[1] * eye
    del eye
    U1 = fk.FockOperator(b, u1, 1)
    U2 = fk.FockOperator(b, u2, 1)
    H, T1, T2, M3 = ops["H"], ops["T1"], ops["T2"], ops["M3"]
    P1, P2, L3 = ops["p1"], ops["p2"], ops["L3"]
    XC1, XC2 = ops["xc1"], ops["xc2"]
    X1, X2 = ops["x1"], ops["x2"]

    # a product with a diagonal factor is a broadcast: every entry has one
    # nonzero term, so it rounds exactly as the dense product does
    diagonals = {id(H): np.diag(H.matrix), id(M3): np.diag(M3.matrix)}

    def product(x, y):
        if id(y) in diagonals:
            return x.matrix * diagonals[id(y)][None, :]
        if id(x) in diagonals:
            return diagonals[id(x)][:, None] * y.matrix
        return x.matrix @ y.matrix

    # expected commutators are built one at a time on the interior block
    # alone: the subtraction is elementwise, so this equals the interior of
    # the full difference
    idx = b.interior_indices(margin)
    inner = np.ix_(idx, idx)
    eye_in = np.eye(len(idx), dtype=complex)

    def part(m):
        return m[inner]

    comms = [
        ("comm:[x1,p1]", X1, P1, lambda: 1j * hb * eye_in),
        ("comm:[x1,p2]", X1, P2, lambda: 0.0),
        ("comm:[x2,p1]", X2, P1, lambda: 0.0),
        ("comm:[x2,p2]", X2, P2, lambda: 1j * hb * eye_in),
        ("comm:[p1,p2]", P1, P2, lambda: 1j * hb * qb * eye_in),
        ("comm:[T1,T2]", T1, T2, lambda: -1j * hb * s * p.m * w * eye_in),
        ("comm:[T1,H]", T1, H, lambda: 0.0),
        ("comm:[T2,H]", T2, H, lambda: 0.0),
        ("comm:[M3,H]", M3, H, lambda: 0.0),
        ("comm:[T1,M3]", T1, M3, lambda: -1j * hb * part(T2.matrix)),
        ("comm:[T2,M3]", T2, M3, lambda: 1j * hb * part(T1.matrix)),
        ("comm:[xc1,xc2]", XC1, XC2, lambda: (-1j * hb / qb) * eye_in),
        ("comm:[xc1,H]", XC1, H, lambda: 0.0),
        ("comm:[xc2,H]", XC2, H, lambda: 0.0),
        ("comm:[xc1,p1]", XC1, P1, lambda: 0.0),
        ("comm:[xc1,p2]", XC1, P2, lambda: 0.0),
        ("comm:[xc2,p1]", XC2, P1, lambda: 0.0),
        ("comm:[xc2,p2]", XC2, P2, lambda: 0.0),
        ("comm:[p1,H]", P1, H, lambda: 1j * s * hb * w * part(P2.matrix)),
        ("comm:[p2,H]", P2, H, lambda: -1j * s * hb * w * part(P1.matrix)),
        ("comm:[L3,M3]", L3, M3, lambda: 0.0),
        ("comm:[T1,L3]", T1, L3, lambda: -1j * hb * part(P2.matrix)),
        ("comm:[T2,L3]", T2, L3, lambda: 1j * hb * part(P1.matrix)),
        ("comm:[p1,L3]", P1, L3, lambda: 1j * hb * part(T2.matrix)
         - 2j * hb * part(P2.matrix)),
        ("comm:[p2,L3]", P2, L3, lambda: -1j * hb * part(T1.matrix)
         + 2j * hb * part(P1.matrix)),
        ("comm:[x1,T1]", X1, T1, lambda: 1j * hb * eye_in),
        ("comm:[x1,T2]", X1, T2, lambda: 0.0),
        ("comm:[x2,T2]", X2, T2, lambda: 1j * hb * eye_in),
        ("comm:[p1,T1]", P1, T1, lambda: 0.0),
        ("comm:[p2,T2]", P2, T2, lambda: 0.0),
        ("comm:[u1,M3]", U1, M3, lambda: -1j * hb * part(u2)),
        ("comm:[u2,M3]", U2, M3, lambda: 1j * hb * part(u1)),
        ("comm:[p1,M3]", P1, M3, lambda: -1j * hb * part(P2.matrix)),
        ("comm:[p2,M3]", P2, M3, lambda: 1j * hb * part(P1.matrix)),
        ("comm:[L3,H]", L3, H,
         lambda: -0.5j * s * hb * w * part(u1 @ P1.matrix + P1.matrix @ u1
                                           + u2 @ P2.matrix + P2.matrix @ u2)),
    ]
    # no excursion precondition here: an inadequate margin shows up as a
    # large deviation rather than an exception
    for cid, a, bb, expected in comms:
        dev = part(product(a, bb) - product(bb, a)) - expected()
        rep.add(cid, float(np.max(np.abs(dev))) if dev.size else 0.0, tol)

    rel = (T1.matrix @ T1.matrix + T2.matrix @ T2.matrix
           - 2.0 * p.m * H.matrix - 2.0 * qb * M3.matrix)
    idx = b.interior_indices(max(margin, 2))
    rep.add("charge-relation", float(np.max(np.abs(rel[np.ix_(idx, idx)]))), tol)

    # selection rules: velocity moves exactly one level, translations one
    # intra-level step at fixed level
    dn = np.subtract.outer(nminus, nminus)
    dnp = np.subtract.outer(nplus, nplus)
    mask = np.abs(dn) != 1
    p_off = float(np.max(np.abs(P1.matrix[mask]))) if mask.any() else 0.0
    rep.add("selection:p-levels", p_off, tol)
    t_mask = (np.abs(dnp) != 1) | (dn != 0)
    rep.add("selection:T-intra-level",
            float(np.max(np.abs(T1.matrix[t_mask]))), tol)
    return rep


# ---------------------------------------------------------------------------
# Quadrature machinery shared by the scan campaigns
# ---------------------------------------------------------------------------


def _default_grid(p: PhysicalParams, g: GaugeChoice, k: int,
                  scheme: str) -> quad.Grid2:
    scale = math.sqrt(2.0) * p.magnetic_length
    if scheme == "gauss_hermite":
        return quad.Grid2.gauss_hermite(k, centre=g.x0, scale=scale)
    if scheme == "simpson":
        # 13 magnetic lengths: the slowest suite integrands (translation
        # eigenstates decay in x1 only through their partner state) reach the
        # 1e-12 boundary contract there
        return quad.Grid2.simpson(k, centre=g.x0,
                                  extent=13.0 * p.magnetic_length)
    raise ValueError(f"unknown scheme {scheme!r}")


# Integrand rows filled before one batched reduction: 2**16 complex values
# (1 MiB) whatever the grid size, so memory does not grow with a campaign.
_ELEMENT_BLOCK = 1 << 16


class _ElementEngine:
    """Caches wave-function jets and operator coefficient arrays on the fine
    grid and evaluates batches of matrix elements through one blocked exact
    reduction."""

    def __init__(self, grid: quad.Grid2, origin):
        self.grid = grid
        x1, x2, _ = grid.points
        self.xy = (x1, x2)
        self.u = (x1 - origin[0], x2 - origin[1])
        self._jets: dict = {}
        self._ops: dict = {}

    def load(self, key, make, *args):
        """Cache the jet of the wave function ``make(*args)`` under ``key``;
        the function is only built when no jet is cached for the key."""
        if key not in self._jets:
            self._jets[key] = make(*args).jet(*self.xy)

    def _coeff_arrays(self, op: wv.DiffOpSpec):
        key = id(op)
        if key not in self._ops:
            coeffs = [(slot, poly(*self.u))
                      for slot, poly in enumerate((op.c, op.b1, op.b2,
                                                   op.a11, op.a12, op.a22))
                      if not poly.is_zero()]
            self._ops[key] = (op, coeffs)
        return self._ops[key][1]

    def _apply(self, op: wv.DiffOpSpec | None, jet: wv.WaveJet):
        if op is None:
            return jet.f
        out = 0.0
        for slot, arr in self._coeff_arrays(op):
            out = out + arr * jet[slot]
        return out

    def elements(self, requests) -> list[complex]:
        """``<bra|op|ket>`` for every ``(bra_key, op, ket_key)`` request, in
        request order; ``op=None`` gives the overlap ``<bra|ket>``.  Each value
        equals ``quad.matrix_element`` (or ``inner_product``) bit for bit
        unless the bra's phase polynomial is zero (symmetric gauge, phi = 0):
        then ``WaveForm.value`` takes the complex ``exp(-Q + i*0)`` and the jet
        the real ``exp(-Q)``, which can differ in the last bit.  A support
        failure is raised for the first failing request."""
        n = len(self.u[0])
        rows = max(1, _ELEMENT_BLOCK // n)
        buf = np.empty((min(rows, len(requests)), n), dtype=complex)
        out: list[complex] = []
        for start in range(0, len(requests), rows):
            chunk = requests[start:start + rows]
            for r, (bra, op, ket) in enumerate(chunk):
                np.multiply(np.conj(self._jets[bra].f),
                            self._apply(op, self._jets[ket]), out=buf[r])
            out += quad.integrate_rows(buf[:len(chunk)], self.grid)
        return out


def _angular_states(n_top: int, l_top: int) -> list[tuple[int, int]]:
    return [(l, n) for n in range(n_top + 1)
            for l in range(-min(n, l_top), l_top + 1)]


def _neighbour_pairs(states, extra_offsets=((0, 2), (2, 0), (1, -2), (2, 2))):
    """Index pairs coupled by the tabulated operators plus a deterministic
    sample of structurally-zero pairs."""
    sset = set(states)
    pairs = []
    for (l1, n1) in states:
        for dl in (-1, 0, 1):
            for dn in (-1, 0, 1):
                cand = (l1 + dl, n1 + dn)
                if cand in sset:
                    pairs.append(((l1, n1), cand))
    for (dn, dl) in extra_offsets:
        for (l1, n1) in states[:: max(1, len(states) // 4)]:
            cand = (l1 + dl, n1 + dn)
            if cand in sset:
                pairs.append(((l1, n1), cand))
    return pairs


_SCAN_OPS = ("H", "T1", "T2", "M3", "p1", "p2", "L3")


def _canonical_route(p: PhysicalParams, gauges, basis: fk.FockBasis,
                     pairs) -> list[dict]:
    """Matrix elements <bra|op|ket> of the canonical operators (pi1, pi2,
    L3c) on ``basis`` at every angular-label pair, one list per operator and
    gauge; each has the bits of ``fk.gauge_variant_matrix(...).element``.

    Only the entries read are kept: of the partner matrices, which do not
    depend on the gauge, and of each position monomial, built once for all
    gauges."""
    at = ([basis.index(bra[1] + bra[0], bra[1]) for bra, _ in pairs],
          [basis.index(ket[1] + ket[0], ket[1]) for _, ket in pairs])
    partners = {name: fk.build_observable(CANONICAL_PARTNER[name], p,
                                          gauges[0].x0, basis).matrix[at]
                for name in CANONICAL_PARTNER}
    keys = {key for g in gauges for name in CANONICAL_PARTNER
            for key in canonical_extra(name, g, p).terms}
    monomials = {key: mono[at]
                 for key, mono in fk.position_monomials(p, basis, keys)}
    return [{name: fk.canonical_entries(name, g, p, partners[name],
                                        monomials).tolist()
             for name in CANONICAL_PARTNER}
            for g in gauges]


def run_gauge_scan(p: PhysicalParams, gauges=None, nmax: int = 16,
                   grid_k: int = 80, scheme: str = "gauss_hermite",
                   seed: int = 7, tol_inv: float = QUAD_TOL,
                   tol_dec: float = QUAD_TOL, n_top: int = 4,
                   l_top: int = 4) -> VerificationReport:
    """Recompute physical matrix elements by quadrature in every gauge and
    check that they do not move; check that the canonical (gauge-variant)
    operators decompose exactly as predicted and shift between gauges by
    the gradient of the gauge-transformation function."""
    if gauges is None:
        gauges = default_gauges(seed)
    x0 = gauges[0].x0
    for g in gauges:
        if g.x0 != x0:
            raise OriginMismatchError("all gauges in a scan must share x0")

    rep = VerificationReport(
        campaign="gauge-scan", params=_params_dict(p),
        gauges=[_gauge_dict(g) for g in gauges],
        settings={"nmax": nmax, "margin": None, "grid": grid_k,
                  "scheme": scheme, "seed": seed})

    states = _angular_states(n_top, l_top)
    pairs = _neighbour_pairs(states)

    invariant: dict = {name: {} for name in _SCAN_OPS}
    canonical: dict = {name: {} for name in CANONICAL_PARTNER}
    dec_dev = {name: 0.0 for name in CANONICAL_PARTNER}
    route_dev = {name: 0.0 for name in CANONICAL_PARTNER}

    u1, u2 = Poly2.variable(1), Poly2.variable(2)

    sample_set = set(states[:6])
    # canonical-operator checks on a deterministic half of the pairs,
    # always keeping the sample block used by the shift comparison
    checked = [not (pi % 2) or (bra in sample_set and ket in sample_set)
               for pi, (bra, ket) in enumerate(pairs)]
    route = _canonical_route(p, gauges, fk.FockBasis(nmax),
                             [pair for pair, check in zip(pairs, checked)
                              if check])

    for gi, g in enumerate(gauges):
        grid = _default_grid(p, g, grid_k, scheme)
        eng = _ElementEngine(grid, g.x0)
        for (l, n) in states:
            eng.load((l, n), wv.fock_state, g, p, n + l, n)
        ops = {name: wv.position_op(name, g, p) for name in _SCAN_OPS}
        cano = {name: wv.position_op(name, g, p) for name in CANONICAL_PARTNER}
        extra = {name: wv.multiplication_op(canonical_extra(name, g, p))
                 for name in CANONICAL_PARTNER}
        route_values = {name: iter(route[gi][name])
                        for name in CANONICAL_PARTNER}
        requests = []
        for (bra, ket), check in zip(pairs, checked):
            requests += [(bra, ops[name], ket) for name in _SCAN_OPS]
            if check:
                for name in CANONICAL_PARTNER:
                    requests += [(bra, cano[name], ket),
                                 (bra, extra[name], ket)]
        values = iter(eng.elements(requests))
        for (bra, ket), check in zip(pairs, checked):
            here = {}
            for name in _SCAN_OPS:
                here[name] = next(values)
                invariant[name].setdefault((bra, ket), []).append(here[name])
            if not check:
                continue
            for name in CANONICAL_PARTNER:
                val = next(values)
                canonical[name][(bra, ket, gi)] = val
                pred = here[CANONICAL_PARTNER[name]] + next(values)
                dec_dev[name] = np.maximum(dec_dev[name], abs(val - pred))
                route_dev[name] = np.maximum(route_dev[name],
                                             abs(val - next(route_values[name])))

    for name in _SCAN_OPS:
        spread = 0.0
        for vals in invariant[name].values():
            arr = np.asarray(vals)
            spread = np.maximum(spread, float(np.max(np.abs(arr - arr.mean()))))
        rep.add(f"invariance:{name}", spread, tol_inv)
    for name in CANONICAL_PARTNER:
        rep.add(f"decomposition:{name}", dec_dev[name], tol_dec)
        rep.add(f"matrix-route:{name}", route_dev[name], tol_dec)

    # gauge dependence: elements shift by the gradient of the gauge change
    ref = min(range(len(gauges)),
              key=lambda i: (gauges[i].alpha != 0.0, not gauges[i].phi.is_zero(), i))
    eng = _ElementEngine(_default_grid(p, gauges[ref], grid_k, scheme), x0)
    sample = states[:6]
    for (l, n) in sample:
        eng.load((l, n), wv.fock_state, gauges[ref], p, n + l, n)
    keys, requests = [], []
    for gi, g in enumerate(gauges):
        if gi == ref:
            continue
        delta = gauge_delta(gauges[ref], g, p)
        shift_ops = {
            "pi1": wv.multiplication_op(p.q * delta.diff(1)),
            "pi2": wv.multiplication_op(p.q * delta.diff(2)),
            "L3c": wv.multiplication_op(
                u1 * (p.q * delta.diff(2)) - u2 * (p.q * delta.diff(1))),
        }
        for name in CANONICAL_PARTNER:
            for bra in sample:
                for ket in sample:
                    if (bra, ket, gi) in canonical[name] \
                            and (bra, ket, ref) in canonical[name]:
                        keys.append((name, bra, ket, gi))
                        requests.append((bra, shift_ops[name], ket))
    shift_dev = 0.0
    shift_mag = 0.0
    for (name, bra, ket, gi), predicted in zip(keys, eng.elements(requests)):
        actual = canonical[name][(bra, ket, gi)] \
            - canonical[name][(bra, ket, ref)]
        shift_dev = np.maximum(shift_dev, abs(actual - predicted))
        shift_mag = np.maximum(shift_mag, abs(actual))
    rep.add("canonical-shift:predicted", shift_dev, tol_dec)
    # gauge-variant elements must demonstrably move between gauges
    rep.add("canonical-shift:nonzero", np.maximum(0.0, 1e-3 - shift_mag), EXACT)
    return rep


# ---------------------------------------------------------------------------
# Matrix-element tables: closed form vs Fock matrices vs quadrature
# ---------------------------------------------------------------------------

_TABLE_OPS = ("T1", "T2", "M3", "p1", "p2", "L3")


def run_reproduce_tables(p: PhysicalParams, nmax: int = 16,
                         grid_k: int = 80, scheme: str = "gauss_hermite",
                         gauge: GaugeChoice | None = None,
                         tol_alg: float = ALGEBRA_TOL,
                         tol_quad: float = QUAD_TOL, idx_top=TABLE_INDEX_TOP):
    """Reproduce the angular-basis matrix-element table through three routes
    and the translation-eigenbasis table through two; returns the report and
    the CSV rows (basis, operator, indices, closed form, computed, error)."""
    g = gauge if gauge is not None else GaugeChoice(0.0)
    rep = VerificationReport(
        campaign="reproduce-tables", params=_params_dict(p),
        gauges=[_gauge_dict(g)],
        settings={"nmax": nmax, "margin": None, "grid": grid_k,
                  "scheme": scheme, "seed": None})
    rows: list[tuple] = []
    basis = fk.FockBasis(nmax)
    mats = {name: fk.build_observable(name, p, g.x0, basis)
            for name in _TABLE_OPS}

    states = _angular_states(idx_top, idx_top)
    pairs = _neighbour_pairs(states)

    # route 1 vs route 2 over every in-range label pair
    half = nmax // 2
    wide = _angular_states(half, half)
    ell, lvl = (np.array(c)[:, None] for c in zip(*wide))
    flat = np.array([basis.index(n + l, n) for (l, n) in wide])
    for name in _TABLE_OPS:
        diff = (fk.angular_element(name, ell, lvl, ell.T, lvl.T, p).value
                - mats[name].matrix[flat[:, None], flat[None, :]])
        # Python's abs, with which numpy's vectorised complex modulus can
        # differ in the last bit, over the nonzero differences; keeps a NaN
        dev = np.max([abs(z) for z in diff[diff != 0].tolist()], initial=0.0)
        rep.add(f"angular:{name}:closed-vs-matrix", dev, tol_alg)

    same_level = np.max([
        abs(mats[name].element((n1 + l1, n1), (n2 + l2, n2)))
        for name in ("p1", "p2")
        for ((l1, n1), (l2, n2)) in pairs if n1 == n2])
    rep.add("angular:p-same-level-zero", same_level, tol_alg)

    grid = _default_grid(p, g, grid_k, scheme)
    eng = _ElementEngine(grid, g.x0)
    for (l, n) in states:
        eng.load((l, n), wv.fock_state, g, p, n + l, n)
    ops = {name: wv.position_op(name, g, p) for name in _TABLE_OPS}
    values = iter(eng.elements([(bra, ops[name], ket) for name in _TABLE_OPS
                                for (bra, ket) in pairs]))
    l1s, n1s, l2s, n2s = (np.array(c) for c in zip(*(
        (l1, n1, l2, n2) for ((l1, n1), (l2, n2)) in pairs)))
    for name in _TABLE_OPS:
        dev = 0.0
        table = fk.angular_element(name, l1s, n1s, l2s, n2s, p).value.tolist()
        for ((l1, n1), (l2, n2)), closed in zip(pairs, table):
            val = next(values)
            dev = np.maximum(dev, abs(closed - val))
            rows.append(("angular", name, (l1, n1, l2, n2),
                         closed, val, abs(closed - val)))
        rep.add(f"angular:{name}:closed-vs-quadrature", dev, tol_quad)

    # translation-eigenbasis table: intra-level rows act as differential
    # operators on the basis-change profiles
    sig = math.sqrt(p.hbar * p.m * p.omega_c)
    tsamples = np.linspace(-2.5 * sig, 2.5 * sig, 9)
    c_plus = math.sqrt(p.hbar * p.m * p.omega_c / 2.0)
    for name in ("T1", "T2", "M3"):
        dev, scale = 0.0, 0.0
        for n in range(idx_top + 1):
            for npl in range(idx_top + 1):
                chi = wv.t1_basis_function(npl, p)
                lhs = wv.t1rep_apply(name, chi, n, p)(tsamples)
                if name == "T1":
                    rhs = 1j * c_plus * (
                        math.sqrt(npl + 1)
                        * wv.t1_basis_function(npl + 1, p).value(tsamples)
                        - math.sqrt(npl)
                        * (wv.t1_basis_function(npl - 1, p).value(tsamples)
                           if npl else 0.0))
                elif name == "T2":
                    rhs = p.sign * c_plus * (
                        math.sqrt(npl + 1)
                        * wv.t1_basis_function(npl + 1, p).value(tsamples)
                        + math.sqrt(npl)
                        * (wv.t1_basis_function(npl - 1, p).value(tsamples)
                           if npl else 0.0))
                else:
                    rhs = p.sign * p.hbar * (npl - n) * chi.value(tsamples)
                dev = np.maximum(dev, float(np.max(np.abs(lhs - rhs))))
                scale = np.max([scale, float(np.max(np.abs(rhs))), 1e-300])
                rows.append(("t1", name, (npl, n),
                             complex(rhs[4]), complex(lhs[4]),
                             float(abs(lhs[4] - rhs[4]))))
        rep.add(f"t1:{name}:kernel-vs-ladder", dev / scale, tol_quad)

    dev_levels = _t1_level_rows(p, g, grid_k, scheme, rows, idx_top)
    for name, dev in dev_levels.items():
        rep.add(f"t1:{name}:kernel-vs-quadrature", dev, tol_quad)
    return rep, rows


def _t1_level_rows(p, g, grid_k, scheme, rows, idx_top) -> dict:
    """Level-changing rows of the translation-eigenbasis table checked by
    quadrature on both sides: the operator element against the tabulated
    delta-kernel coefficient times the quadrature overlap."""
    grid = _default_grid(p, g, grid_k, scheme)
    eng = _ElementEngine(grid, g.x0)
    sig = math.sqrt(p.hbar * p.m * p.omega_c)
    c = math.sqrt(p.hbar * p.m * p.omega_c / 2.0)
    s, hb = p.sign, p.hbar
    tvals = (0.0, 0.9 * sig)
    nplus_vals = (0, 2)
    ops = {name: wv.position_op(name, g, p) for name in ("p1", "p2", "L3")}

    def coeff(name, n1, n2):
        if name == "p1":
            if n1 == n2 + 1:
                return s * c * math.sqrt(n1)
            if n2 == n1 + 1:
                return s * c * math.sqrt(n2)
            return 0.0
        if name == "p2":
            if n1 == n2 + 1:
                return 1j * c * math.sqrt(n1)
            if n2 == n1 + 1:
                return -1j * c * math.sqrt(n2)
            return 0.0
        # L3 tabulated only within a level
        return -s * hb * (2 * n1 + 1) if n1 == n2 else None

    dev = {"p1": 0.0, "p2": 0.0, "L3": 0.0}
    level_pairs = [(n2 + d, n2) for n2 in (0, 1, 3, 5) for d in (1, -1)
                   if 0 <= n2 + d <= idx_top]
    level_pairs += [(n, n) for n in (0, 2, 4, 6)]
    level_pairs += [(0, 2), (1, 4)]  # structurally zero velocity rows
    scale = c
    cases = [(t1, npl, n1, n2) for t1 in tvals for npl in nplus_vals
             for (n1, n2) in level_pairs]
    # level pairs sharing n2 share the overlap <t1, n2|n+, n2>: it is
    # requested once and read by position
    requests, overlap_at, at = [], {}, []
    for (t1, npl, n1, n2) in cases:
        bra = ("t1", t1, n1)
        ket = ("fock", npl, n2)
        eng.load(bra, wv.t1_state, g, p, t1, n1)
        eng.load(ket, wv.fock_state, g, p, npl, n2)
        overlap = (("t1", t1, n2), None, ket)
        if overlap not in overlap_at:
            eng.load(overlap[0], wv.t1_state, g, p, t1, n2)
            overlap_at[overlap] = len(requests)
            requests.append(overlap)
        at.append((overlap_at[overlap], len(requests)))
        requests += [(bra, ops["p1"], ket), (bra, ops["p2"], ket)]
        if n1 == n2:
            requests.append((bra, ops["L3"], ket))
    results = eng.elements(requests)
    for (t1, npl, n1, n2), (ov, first) in zip(cases, at):
        overlap = results[ov]
        values = iter(results[first:first + 3])  # p1, p2, L3 within a level
        for name in ("p1", "p2"):
            k = coeff(name, n1, n2)
            lhs = next(values)
            rhs = k * overlap
            dev[name] = np.maximum(dev[name], abs(lhs - rhs) / scale)
            rows.append(("t1", name, (n1, n2, npl, t1),
                         rhs, lhs, abs(lhs - rhs)))
        if n1 == n2:
            k = coeff("L3", n1, n2)
            lhs = next(values)
            rhs = k * overlap
            dev["L3"] = np.maximum(dev["L3"], abs(lhs - rhs) / (hb * (2 * n1 + 1)))
            rows.append(("t1", "L3", (n1, n2, npl, t1),
                         rhs, lhs, abs(lhs - rhs)))
    return dev


# ---------------------------------------------------------------------------
# Basis change between the translation and angular eigenbases
# ---------------------------------------------------------------------------


def run_basis_change(p: PhysicalParams, gauge: GaugeChoice | None = None,
                     grid_k: int = 80, scheme: str = "gauss_hermite",
                     seed: int = 7, tol_quad: float = QUAD_TOL,
                     tol_rec: float = 1e-7) -> VerificationReport:
    """Check the closed-form basis-change coefficients against quadrature
    overlaps, their orthonormality, the level-phase law, and the
    reconstruction of angular wave functions from the translation basis."""
    g = gauge if gauge is not None else GaugeChoice(0.0)
    rep = VerificationReport(
        campaign="basis-change", params=_params_dict(p),
        gauges=[_gauge_dict(g)],
        settings={"nmax": None, "margin": None, "grid": grid_k,
                  "scheme": scheme, "seed": seed})
    sig = math.sqrt(p.hbar * p.m * p.omega_c)
    grid = _default_grid(p, g, grid_k, scheme)
    tvals = (0.0, -0.8 * sig, 0.8 * sig, 1.7 * sig)

    dev = 0.0
    for npl in range(9):
        for t1 in tvals:
            ov = quad.inner_product(wv.fock_state(g, p, npl, 0),
                                    wv.t1_state(g, p, t1, 0), grid)
            dev = np.maximum(dev, abs(ov - fk.change_of_basis(npl, t1, p)))
    rep.add("closed-vs-quadrature", dev, tol_quad)

    dev = 0.0
    for nm in (1, 2, 3):
        for npl in (0, 1, 3):
            for t1 in (0.0, 0.8 * sig):
                ov = quad.inner_product(wv.fock_state(g, p, npl, nm),
                                        wv.t1_state(g, p, t1, nm), grid)
                dev = np.maximum(dev, abs(ov - fk.t1_fock_overlap(npl, nm, t1, p)))
    rep.add("level-phase", dev, tol_quad)

    # the coefficients on the line-integral nodes, once per n+.  Each is a
    # real number times a power of i, so a product of two has one nonzero
    # term per part and numpy's vectorised complex multiply (which fuses
    # multiply-adds) rounds it as the scalar product does
    nodes = quad.line_nodes(grid_k, sig).tolist()
    coeffs = [np.array([fk.change_of_basis(npl, tt, p) for tt in nodes])
              for npl in range(11)]
    dev = 0.0
    for npl in range(11):
        for mpl in range(npl + 1):
            row = coeffs[npl] * np.conj(coeffs[mpl])
            val = quad.line_integral(lambda t: row, k=grid_k, scale=sig)
            dev = np.maximum(dev, abs(val - (1.0 if npl == mpl else 0.0)))
    rep.add("orthonormality", dev, tol_quad)

    rng = np.random.default_rng(seed)
    lam = p.magnetic_length
    pts = g.x0 + lam * rng.uniform(-2.5, 2.5, size=(20, 2))
    amp = math.sqrt(p.m * p.omega_c / (2.0 * math.pi * p.hbar))
    k = max(60, grid_k)
    nodes = quad.line_nodes(k, sig).tolist()
    cases = ((0, 0), (1, 0), (2, 1), (1, 2), (3, 2))
    # one translation state per level and node, valued at every point at
    # once: a (node, point) table with the bits of the pointwise values
    states = {nm: np.array([wv.t1_state(g, p, tt, nm).value(*pts.T)
                            for tt in nodes])
              for nm in {nm for _, nm in cases}}
    dev = 0.0
    for (npl, nm) in cases:
        # a real number times a power of i, like the coefficients above
        weight = np.conj([fk.t1_fock_overlap(npl, nm, tt, p) for tt in nodes])
        rows = states[nm] * weight[:, None]
        # the target stays pointwise: fock_state values on an array can
        # differ from them in the last bit
        target = wv.fock_state(g, p, npl, nm)
        for j, (x1, x2) in enumerate(pts):
            rec = quad.line_integral(lambda t: rows[:, j], k=k, scale=sig)
            dev = np.maximum(dev, abs(rec - target.value(x1, x2)) / amp)
    rep.add("reconstruction", dev, tol_rec)
    return rep


# ---------------------------------------------------------------------------
# Classical dynamics
# ---------------------------------------------------------------------------


def run_classical_sim(p: PhysicalParams, tp: cl.TrajectoryParams | None = None,
                      dt: float | None = None, steps: int | None = None,
                      method: str = "boris", x0=(0.0, 0.0), seed: int = 7,
                      drift_tol: float = DRIFT_TOL):
    """Integrate a cyclotron orbit, emit the trajectory with its conserved
    charges, and check charge conservation, the charge relation, the
    equation-of-motion residual of the analytic solution, and closure.

    Returns the report and a ``(steps+1, 9)`` array of rows
    ``t, x1, x2, p1, p2, E, T1, T2, M3``."""
    period = 2.0 * math.pi / p.omega_c
    if tp is None:
        tp = cl.TrajectoryParams(E=0.5 * p.hbar * p.omega_c,
                                 xc=(0.5 * p.magnetic_length,
                                     -0.25 * p.magnetic_length))
    if dt is None:
        dt = period / 1000.0
    if steps is None:
        steps = 10000
    rep = VerificationReport(
        campaign="classical-sim", params=_params_dict(p), gauges=[],
        settings={"nmax": None, "margin": None, "grid": None,
                  "scheme": method, "seed": seed,
                  "dt": dt, "steps": steps,
                  "trajectory": {"E": tp.E, "xc": list(tp.xc), "t0": tp.t0}})

    s0 = cl.analytic_trajectory(p, tp, 0.0)
    path = cl.integrate(p, s0, dt, steps, method=method)
    charges = cl.noether_charges(p, x0, path)
    rows = np.column_stack((np.arange(steps + 1) * dt, path, *charges))

    q0 = [float(c[0]) for c in charges]
    p_amp = math.sqrt(2.0 * p.m * tp.E)
    scales = (max(abs(q0[0]), 1.0e-300),
              max(abs(q0[1]), p_amp, 1.0e-300),
              max(abs(q0[2]), p_amp, 1.0e-300),
              max(abs(q0[3]), tp.E / p.omega_c, 1.0e-300))
    for name, c, c0, scale in zip(cl.NoetherCharges._fields, charges, q0,
                                  scales):
        drift = float(np.max(np.abs(c - c0)))
        rep.add(f"drift:{name}", 0.0 if drift == 0.0 else drift / scale,
                drift_tol)

    # T ** 2 stays a scalar float power (libm pow, which numpy's square need
    # not match bit for bit); the rest is elementwise, so exact in numpy
    e, t1, t2, m3 = charges
    tsq = np.array([a ** 2 + b ** 2 for a, b in zip(t1.tolist(), t2.tolist())])
    two_m = 2.0 * p.m
    resid = tsq - two_m * e - 2.0 * p.qB * m3
    scale = np.maximum(np.maximum(np.maximum(tsq, two_m * np.abs(e)),
                                  2.0 * np.abs(p.qB * m3)), 1.0)
    rel_dev = float(np.max(np.abs(resid) / scale))
    rep.add("relation-residual", rel_dev, 1e-10)

    # analytic solution satisfies the equation of motion: five-point stencils
    # at two step sizes with Richardson extrapolation as the independent
    # oracle (kills the truncation term, keeps round-off ~1e-11)
    rng = np.random.default_rng(seed)
    h = 1e-2 / p.omega_c
    # force floor: cyclotron force at one magnetic length, so the zero-energy
    # orbit normalises finite-difference round-off sensibly
    force_scale = max(abs(p.qB) * p_amp / p.m,
                      p.m * p.omega_c ** 2 * p.magnetic_length)

    def stencils(t, step):
        xs = [np.asarray(cl.analytic_trajectory(p, tp, t + k * step).x)
              for k in (-2, -1, 0, 1, 2)]
        acc = (-xs[0] + 16 * xs[1] - 30 * xs[2] + 16 * xs[3] - xs[4]) \
            / (12 * step * step)
        vel = (xs[0] - 8 * xs[1] + 8 * xs[3] - xs[4]) / (12 * step)
        return acc, vel

    dev = 0.0
    for t in rng.uniform(0.0, 3.0 * period, size=10):
        acc_h, vel_h = stencils(t, h)
        acc_2h, vel_2h = stencils(t, 2 * h)
        acc = (16.0 * acc_h - acc_2h) / 15.0
        vel = (16.0 * vel_h - vel_2h) / 15.0
        resid = p.m * acc - p.qB * np.array([vel[1], -vel[0]])
        val = float(np.max(np.abs(resid)))
        dev = np.maximum(dev, 0.0 if val == 0.0 else val / force_scale)
    rep.add("ode-residual", dev, 1e-10)

    x1, x2 = cl.integrate(p, s0, period / 1000.0, 1000, method="boris")[-1, :2]
    gap = math.hypot(x1 - s0.x[0], x2 - s0.x[1])
    rep.add("closure:one-period", gap / p.magnetic_length, 1e-6)

    energy = cl.noether_charges(
        p, x0, cl.integrate(p, s0, dt, steps, method="rk4")).E
    e0 = float(energy[0])
    e_dev = float(np.max(np.abs(energy - e0)))
    rep.add("rk4-energy-drift",
            0.0 if e_dev == 0.0 else e_dev / max(e0, 1.0e-300), drift_tol)
    return rep, rows


# ---------------------------------------------------------------------------
# Flat-connection representation demo
# ---------------------------------------------------------------------------


def run_heisenberg_demo(p: PhysicalParams, grid_k: int = 80,
                        scheme: str = "gauss_hermite",
                        tol: float = 1e-10) -> VerificationReport:
    """Matrix elements computed in the plain representation and in the
    connection-dressed representation with re-phased wave functions must
    coincide; exercised for three polynomial generators and five
    operator/state pairs."""
    g = GaugeChoice(0.0)
    rep = VerificationReport(
        campaign="heisenberg-demo", params=_params_dict(p), gauges=[],
        settings={"nmax": None, "margin": None, "grid": grid_k,
                  "scheme": scheme, "seed": None})
    grid = _default_grid(p, g, grid_k, scheme)
    hb = p.hbar
    zero = Poly2.zero()

    lams = [
        Poly2({(1, 1): 0.5}),
        Poly2({(2, 0): 0.3, (0, 1): -0.7}),
        Poly2({(3, 0): 0.1, (0, 2): 0.4, (1, 0): -0.2}),
    ]
    states = {k: wv.fock_state(g, p, *k)
              for k in ((0, 0), (1, 0), (0, 1), (2, 1))}

    def op_set(v):
        p1 = wv.connection_momentum_op(v, 1, hb)
        p2 = wv.connection_momentum_op(v, 2, hb)
        psq = p1.compose(p1) + p2.compose(p2)
        x1 = wv.multiplication_op(Poly2.variable(1))
        return [
            ("p1", p1, (0, 0), (1, 0)),
            ("p2", p2, (0, 0), (0, 1)),
            ("p-squared", psq, (1, 0), (1, 0)),
            ("x1*p1", x1.compose(p1), (1, 0), (2, 1)),
            ("p2", p2, (2, 1), (0, 1)),
        ]

    base = {}
    for name, op, bra, ket in op_set((zero, zero)):
        base[(name, bra, ket)] = quad.matrix_element(
            states[bra], op, states[ket], grid)

    for i, lam in enumerate(lams):
        v = (lam.diff(1), lam.diff(2))
        dressed = {k: wv.phase_shifted(psi, lam, hb)
                   for k, psi in states.items()}
        dev = 0.0
        for name, op, bra, ket in op_set(v):
            val = quad.matrix_element(dressed[bra], op, dressed[ket], grid)
            dev = np.maximum(dev, abs(val - base[(name, bra, ket)]))
        rep.add(f"flat-connection:lambda{i}", dev, tol)
    return rep
