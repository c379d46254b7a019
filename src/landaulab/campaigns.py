"""Reproducible verification campaigns over the library, producing
structured reports: operator-algebra checks on the truncated Fock space,
cross-gauge invariance scans, closed-form/matrix/quadrature reproduction of
the matrix-element tables, basis-change checks, classical-dynamics checks,
and the flat-connection representation demo.  Each check hands its
deviations to ``VerificationReport.add``, which keeps the largest (or a
NaN); each campaign takes one tolerance, ``tol``, for its primary checks.
Relative deviations are divided by their positive scale before the
reduction: correctly rounded division is monotone, so the largest quotient
has the bits of the largest deviation divided once.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import classical as cl
from . import fockspace as fk
from . import quadrature as quad
from . import waves as wv
from .params import (CANONICAL_PARTNER, GaugeChoice, OriginMismatchError,
                     PhysicalParams, Poly2, format_poly)
from .report import VerificationReport

__all__ = [
    "ALGEBRA_TOL",
    "QUAD_TOL",
    "DRIFT_TOL",
    "ScanLevelsError",
    "default_gauges",
    "classical_orbit",
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


class ScanLevelsError(fk.TruncationError):
    """Raised for scan levels whose Fock entries no truncation keeps exact."""


def _report(campaign: str, p: PhysicalParams, gauges,
            **settings) -> VerificationReport:
    """An empty report whose common settings read None unless given."""
    return VerificationReport(
        campaign=campaign, params={"m": p.m, "q": p.q, "B": p.B,
                                   "hbar": p.hbar, "omega_c": p.omega_c,
                                   "s": p.sign},
        gauges=[{"alpha": g.alpha, "phi": format_poly(g.phi),
                 "x0": list(g.x0)} for g in gauges],
        settings={**dict.fromkeys(("nmax", "grid", "scheme", "seed")),
                  **settings})


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


# the commutators checked, in report order
_COMMUTATORS = [tuple(pair.split(",")) for pair in (
    "x1,p1 x1,p2 x2,p1 x2,p2 p1,p2 T1,T2 T1,H T2,H M3,H T1,M3 T2,M3 "
    "xc1,xc2 xc1,H xc2,H xc1,p1 xc1,p2 xc2,p1 xc2,p2 p1,H p2,H L3,M3 "
    "T1,L3 T2,L3 p1,L3 p2,L3 x1,T1 x1,T2 x2,T2 p1,T1 p2,T2 u1,M3 u2,M3 "
    "p1,M3 p2,M3 L3,H").split()]


def run_verify_algebra(p: PhysicalParams, nmax: int = 16,
                       tol: float = ALGEBRA_TOL,
                       x0=(0.0, 0.0)) -> VerificationReport:
    """Full commutator suite and the quantum charge relation on a truncated
    two-sector basis: a deviation is the largest modulus of an entry the
    truncation did not touch (``FockOperator.magnitudes``).  Weyl's map Q
    (``fk.poly_operator``) is exact on the observables' classical
    polynomials f, of degree at most 2 (Groenewold 1946): each observable
    must be Q(f), and each [A, C] must be i hbar Q({f_A, f_C})."""
    rep = _report("verify-algebra", p, [], nmax=nmax)
    f = cl.observables(p, GaugeChoice(0.0, x0))
    brackets = {pair: cl.poisson_bracket(f[pair[0]], f[pair[1]], p)
                for pair in _COMMUTATORS}
    fk.check_units(p, nmax, brackets)
    b = fk.FockBasis(nmax)
    ops = {name: fk.build_observable(name, p, x0, b)
           for name in fk.OBSERVABLE_NAMES}

    for name, op in ops.items():
        rep.add(f"hermitian:{name}", (op - op.dagger()).magnitudes(), EXACT)

    _, nminus = fk.sector_numbers(b)
    hdiag = ops["H"].shifts[(0, 0)][0]
    rep.add("spectrum:landau-levels",
            np.abs(hdiag - p.hbar * p.omega_c * (nminus + 0.5)), EXACT)
    rep.add("spectrum:degeneracy", np.abs(hdiag - hdiag[0][None, :]), EXACT)

    table = fk.position_monomials(p, b, [
        key for g in (*f.values(), *brackets.values()) for key in g.terms])
    ops.update(u1=table[(1, 0, 0, 0)], u2=table[(0, 1, 0, 0)])
    for name in fk.OBSERVABLE_NAMES:
        gap = fk.poly_operator(f[name], table, b) - ops[name]
        rep.add(f"quantisation:{name}", gap.magnitudes(), tol)
    for (a, c), bracket in brackets.items():
        A, C = ops[a], ops[c]
        gap = A @ C - C @ A - 1j * p.hbar * fk.poly_operator(bracket, table, b)
        rep.add(f"comm:[{a},{c}]", gap.magnitudes(), tol)

    H, T1, T2, M3, P1 = (ops[name] for name in ("H", "T1", "T2", "M3", "p1"))
    rel = T1 @ T1 + T2 @ T2 - 2.0 * p.m * H - 2.0 * p.qB * M3
    rep.add("charge-relation", rel.magnitudes(), tol)

    # selection rules: velocity moves exactly one level, translations one
    # intra-level step at fixed level
    def off(op, allowed):
        kept = [d for d in op.shifts if not allowed(d)]
        return fk.FockOperator(b, {d: op.shifts[d] for d in kept},
                               {d: op.reach[d] for d in kept}).magnitudes()
    rep.add("selection:p-levels", off(P1, lambda d: abs(d[1]) == 1), tol)
    rep.add("selection:T-intra-level",
            off(T1, lambda d: abs(d[0]) == 1 and d[1] == 0), tol)
    return rep


# ---------------------------------------------------------------------------
# Quadrature machinery shared by the scan campaigns
# ---------------------------------------------------------------------------


def _rule_scale(p: PhysicalParams) -> float:
    """sqrt(2) l_B, the scale of every Gauss-Hermite rule of the campaigns."""
    return math.sqrt(2.0) * p.magnetic_length


def _default_grid(p: PhysicalParams, k: int, scheme: str) -> quad.Grid2:
    if scheme == "gauss_hermite":
        return quad.Grid2.gauss_hermite(k, scale=_rule_scale(p))
    if scheme == "simpson":
        # 13 magnetic lengths: the slowest suite integrands (translation
        # eigenstates decay in u1 only through their partner state) reach the
        # 1e-12 boundary contract there
        return quad.Grid2.simpson(k, extent=13.0 * p.magnetic_length)
    raise ValueError(f"unknown scheme {scheme!r}")


# The rule's weight exponent and the states' Gaussians are each rounded a
# few times over; within this relative distance they are one exponent.
_WEIGHT_RTOL = 1e-14


class _ElementEngine:
    """Forms every plane-integral row of the campaigns: evaluates
    batches of matrix elements and overlaps, each batch as one stream of
    integrand rows through ``quad.integrate_rows`` on one rule, from wave
    functions loaded under keys, all about the gauge origin, at the rule's
    nodes u.  A batch makes each factor of its rows once, at its first use,
    and drops it after its last (``wv.Uses``): one jet per key to the
    highest order of the operators applied to it (order 0 for a bra or an
    overlap's ket) and its factor reads, one conjugate per bra and one
    application per operator and ket.  Between batches the engine keeps its
    wave functions and ``certified_k``.

    A request ``<bra|op|ket>`` is *certified* when its integrand is a
    polynomial times the weight of the Gauss-Hermite rule about u = 0 at
    scale sqrt(2) l_B: the scheme is ``gauss_hermite``, bra and ket share
    their phase, and their Gaussians sum to the rule's exponent
    |u|^2 / (2 l_B^2).  Its degree is

        D = deg(bra) + max over the nonzero slots of op of
            [deg(coefficient) + deg(ket) + order * (deg R - 1)],

    with R = -Q + i Phi the ket's exponent (``WaveForm.degree`` and
    ``WaveForm.slope``), and a k-node rule integrates it exactly once
    D <= 2k - 1 (Golub & Welsch, "Calculation of Gauss quadrature rules",
    Math. Comp. 23, 1969).  A batch whose every request is certified runs
    on one such rule, k = max(3, ceil((D_max + 1) / 2)), which skips the
    boundary-decay check, if k is below ``grid_k``; any other batch runs
    wholly on the ``grid_k`` rule of ``scheme`` under that check.
    ``certified_k`` is the largest certified k so far, or None."""

    def __init__(self, p: PhysicalParams, g: GaugeChoice, grid_k: int,
                 scheme: str):
        self.p, self.x0, self.grid_k, self.scheme = p, g.x0, grid_k, scheme
        self.scale = _rule_scale(p)
        self.certified_k = None
        self._forms: dict = {}

    def load(self, key, make, *args):
        """Keep the wave function ``make(*args)`` under ``key``; it is only
        built when no function is kept under the key, and refused unless
        its origin is the engine's."""
        if key not in self._forms:
            form = make(*args)
            if form.origin != self.x0:
                raise OriginMismatchError("not the engine's origin")
            self._forms[key] = form

    def _weight_pair(self, qa: Poly2, qb: Poly2) -> bool:
        """Whether two Gaussians sum to the rule's exponent, coefficient by
        coefficient."""
        total = (qa + qb).terms
        c = 1.0 / (self.scale * self.scale)
        return total.keys() == {(2, 0), (0, 2)} and all(
            math.isclose(total[key], c, rel_tol=_WEIGHT_RTOL)
            for key in total)

    def _certified(self, requests: dict) -> int | None:
        """The node count k of the rule a batch is certified on, or None
        unless every request is certified and k is below ``grid_k``."""
        if self.scheme != "gauss_hermite" or not requests:
            return None
        forms = self._forms
        for bra, ket in {(bra, ket) for bra, _, ket in requests.values()}:
            a, b = forms[bra], forms[ket]
            if a.phase != b.phase or not self._weight_pair(a.gauss, b.gauss):
                return None
        reach: dict = {}  # (op, slope) -> D - deg(bra) - deg(ket)
        rest = {}  # (op, ket) -> D - deg(bra)
        for (i, ket), op in {(id(op), ket): op
                             for _, op, ket in requests.values()}.items():
            b = forms[ket]
            if (i, b.slope) not in reach:  # an overlap adds nothing
                reach[i, b.slope] = 0 if op is None else op.reach(b.slope)
            rest[i, ket] = b.degree + reach[i, b.slope]
        top = max(forms[bra].degree + rest[id(op), ket]
                  for bra, op, ket in requests.values())
        k = max(3, (top + 2) // 2)
        return k if k < self.grid_k else None

    def elements(self, requests: dict) -> dict:
        """``<bra|op|ket>`` for every key of ``requests``, a mapping from the
        caller's key to ``(bra_key, op, ket_key)``, integrated once per key,
        in key order, as one stream on one rule; ``op=None`` gives the
        overlap ``<bra|ket>``.  A value equals ``quad.matrix_element`` (or
        ``inner_product``) on the rule it ran on bit for bit, and a support
        failure is raised for the first failing request, in key order."""
        k = self._certified(requests)
        if k is None:
            rule = _default_grid(self.p, self.grid_k, self.scheme)
        else:
            self.certified_k = max(k, self.certified_k or k)
            rule = quad.Grid2.gauss_hermite(k, self.scale, exact=True)
        return dict(zip(requests, quad.integrate_rows(
            self._rows(requests, rule.points[:2]), rule)))

    def _rows(self, requests: dict, u):
        """The integrand rows conj(bra) * op(ket) of ``requests`` at the
        rule's nodes ``u``, in key order."""
        ops = {id(op): op for _, op, _ in requests.values()}
        terms = {i: op.terms(u) for i, op in ops.items() if op is not None}
        orders = {i: 0 if op is None else op.order for i, op in ops.items()}
        # factors (0, bra) and (id(op), ket); no id is 0
        pairs = [((0, bra), (id(op), ket))
                 for bra, op, ket in requests.values()]
        store = wv.Uses(k for pair in pairs for k in pair)
        left, made, top = store.left, store.kept, {}  # top: each jet's order
        for i, key in list(left):
            top[key] = max(orders.get(i, 0), top.get(key, 0))
            left["jet", key] += 1
        left.update(r for k in top for r in self._forms[k]._reads(top[k]))

        def jet(key):
            return store.take(("jet", key), lambda: self._forms[key].jet(
                *u, top[key], shared=store))
        for kb, kk in pairs:
            if kb not in made:
                made[kb] = np.conj(jet(kb[1]).f)
            if kk not in made:
                op, ket = ops[kk[0]], jet(kk[1])
                made[kk] = ket.f if op is None else \
                    op.apply_jet(ket, u, terms[kk[0]])
            yield made[kb] * made[kk]
            for k in kb, kk:
                left[k] -= 1
                if not left[k]:
                    del made[k]


def _largest(ks):
    """The largest ``certified_k`` of the engines, or None if none is."""
    return max((k for k in ks if k is not None), default=None)


def _angular_states(top: int) -> list[tuple[int, int]]:
    return [(l, n) for n in range(top + 1) for l in range(-n, top + 1)]


def _neighbour_pairs(states, extra_offsets=((0, 2), (2, 0), (1, -2), (2, 2))):
    """Index pairs coupled by the tabulated operators plus a deterministic
    sample of structurally-zero pairs."""
    pairs = [((l, n), (l + dl, n + dn)) for (l, n) in states
             for dl in (-1, 0, 1) for dn in (-1, 0, 1)]
    pairs += [((l, n), (l + dl, n + dn)) for (dn, dl) in extra_offsets
              for (l, n) in states[:: max(1, len(states) // 4)]]
    sset = set(states)
    return [pair for pair in pairs if pair[1] in sset]


def _label_arrays(pairs):
    """Arrays ``l1, n1, l2, n2`` of angular-label pairs."""
    return [np.array(c) for c in zip(*(bra + ket for bra, ket in pairs))]


def _scan_pairs(levels: int):
    """The scan's states, neighbour pairs, checked pairs (a fixed half, and
    the sample block of the first six states) and their Fock labels."""
    states = _angular_states(levels)
    pairs = _neighbour_pairs(states)
    checked = dict.fromkeys(
        (bra, ket) for pi, (bra, ket) in enumerate(pairs)
        if not (pi % 2) or (bra in states[:6] and ket in states[:6]))
    l1, n1, l2, n2 = _label_arrays(checked)
    return states, pairs, checked, ((n1 + l1, n1), (n2 + l2, n2))


_SCAN_OPS = ("H", "T1", "T2", "M3", "p1", "p2", "L3")


def run_gauge_scan(p: PhysicalParams, gauges=None, nmax: int = 16,
                   grid_k: int = 80, scheme: str = "gauss_hermite",
                   seed: int = 7, tol: float = QUAD_TOL,
                   levels: int = 4) -> VerificationReport:
    """Recompute physical matrix elements up to level ``levels`` by
    quadrature in every gauge and check that they do not move; check that
    the canonical (gauge-variant) operators decompose exactly as predicted
    and shift between gauges by q times the change of vector potential.  Each
    gauge is one batch of element requests, all certified (see
    ``_ElementEngine``); the report's ``certified_k`` is the largest
    certified node count per axis.  Raises ``TruncationError`` before any
    quadrature unless every Fock entry it reads is exact at ``nmax``; if no
    ``nmax`` does, ``ScanLevelsError`` names the largest level admitted."""
    if gauges is None:
        gauges = default_gauges(seed)
    x0 = gauges[0].x0
    for g in gauges:
        if g.x0 != x0:
            raise OriginMismatchError("all gauges in a scan must share x0")

    rep = _report("gauge-scan", p, gauges, nmax=nmax, grid=grid_k,
                  scheme=scheme, seed=seed)

    # the Fock route reads the canonical operators (gauge_variant_matrix) at
    # the checked pairs, over one monomial table for all gauges
    tables = [cl.observables(p, g) for g in gauges]
    extras = [{("extra", name): f[name] - f[partner]
               for name, partner in CANONICAL_PARTNER.items()} for f in tables]
    basis = fk.FockBasis(nmax)
    monomials = fk.position_monomials(p, basis, [
        key for extra in extras for f in extra.values() for key in f.terms])
    partners = {name: fk.build_observable(partner, p, x0, basis)
                for name, partner in CANONICAL_PARTNER.items()}
    canonical = [{k: op + fk.poly_operator(e["extra", k], monomials, basis)
                  for k, op in partners.items()} for e in extras]
    flat = [op for ops in canonical for op in ops.values()]
    top = wv.MAX_QUANTUM_NUMBER
    lv = min(levels, top // 2 + 1)  # beyond, labels n+ = 2 lv leave any basis
    states, pairs, checked, (bra, ket) = _scan_pairs(lv)
    need = fk.exact_nmax(flat, bra, ket)
    if need > top:
        while fk.exact_nmax(flat, *_scan_pairs(lv - 1)[3]) > top:
            lv -= 1
        raise ScanLevelsError(f"levels above {lv - 1} read canonical-operator "
                              f"entries that no nmax up to {top} keeps exact")
    if need > nmax:
        raise fk.TruncationError(f"the canonical-operator entries the scan "
                                 f"reads are exact only from nmax {need}")
    fock = [{name: op.entries(bra, ket).tolist() for name, op in ops.items()}
            for ops in canonical]
    del monomials, partners, canonical, flat  # not held through the quadrature
    sample = states[:6]

    # gauge dependence: elements shift by the change of the canonical
    # polynomials, q (A_g - A_ref)(u), predicted by requests in the reference
    # gauge's batch
    ref = min(range(len(gauges)),
              key=lambda i: (gauges[i].alpha != 0.0, not gauges[i].phi.is_zero(), i))
    conns = [wv.gauge_connection(g, p) for g in gauges]
    shifts, conn = {}, conns[ref]
    for gi, f in enumerate(tables):
        if gi == ref:
            continue
        for name in CANONICAL_PARTNER:
            op = wv.schrodinger_op(f[name] - tables[ref][name], conn, p.hbar)
            shifts.update({(gi, name, (bra, ket)): (bra, op, ket)
                           for bra, ket in checked
                           if bra in sample and ket in sample})

    found: dict = {}  # each request's values, in gauge order
    certified = []
    for gi, (g, conn) in enumerate(zip(gauges, conns)):
        eng = _ElementEngine(p, g, grid_k, scheme)
        for (l, n) in states:
            eng.load((l, n), wv.fock_state, g, p, n + l, n)
        f = tables[gi] | extras[gi]
        ops = {name: wv.schrodinger_op(f[name], conn, p.hbar)
               for name in (*_SCAN_OPS, *CANONICAL_PARTNER, *extras[gi])}
        requests = {(name, pair): (pair[0], op, pair[1]) for pair in pairs
                    for name, op in ops.items()
                    if name in _SCAN_OPS or pair in checked}
        if gi == ref:
            requests.update(shifts)
        for key, value in eng.elements(requests).items():
            found.setdefault(key, []).append(value)
        certified.append(eng.certified_k)
    rep.settings["certified_k"] = _largest(certified)

    for name in _SCAN_OPS:
        rows = [np.array(found[name, pair]) for pair in pairs]
        rep.add(f"invariance:{name}", [abs(r - r.mean()) for r in rows], tol)
    for name, partner in CANONICAL_PARTNER.items():
        rep.add(f"decomposition:{name}", [
            abs(v - (w + x)) for pair in checked for v, w, x in zip(
                found[name, pair], found[partner, pair],
                found[("extra", name), pair])], tol)
        rep.add(f"matrix-route:{name}", [
            abs(found[name, pair][gi] - entry) for gi, f in enumerate(fock)
            for pair, entry in zip(checked, f[name])], tol)

    moved = {(gi, name, pair): found[name, pair][gi] - found[name, pair][ref]
             for gi, name, pair in shifts}
    rep.add("canonical-shift:predicted",
            [abs(d - found[key][0]) for key, d in moved.items()], tol)
    # gauge-variant elements must demonstrably move between gauges
    largest = np.max([abs(d) for d in moved.values()], initial=0.0)
    rep.add("canonical-shift:nonzero", [0.0, 1e-3 - largest], EXACT)
    return rep


# ---------------------------------------------------------------------------
# Matrix-element tables: closed form vs Fock matrices vs quadrature
# ---------------------------------------------------------------------------

_TABLE_OPS = ("T1", "T2", "M3", "p1", "p2", "L3")


def run_reproduce_tables(p: PhysicalParams, nmax: int = 16,
                         grid_k: int = 80, scheme: str = "gauss_hermite",
                         gauge: GaugeChoice | None = None,
                         tol: float = QUAD_TOL, idx_top=TABLE_INDEX_TOP):
    """Reproduce the angular-basis matrix-element table through three routes
    and the translation-eigenbasis table through two; returns the report and
    the CSV rows (basis, operator, indices, closed form, computed, error).
    ``tol`` bounds the quadrature routes; the closed form and the Fock
    matrices agree to ``ALGEBRA_TOL``.  The angular rows are certified
    (``certified_k`` as for the scan); the translation-state rows run on
    the ``grid_k`` rule.  Raises ``TruncationError`` before any quadrature
    unless every Fock entry it reads is exact at ``nmax``."""
    g = gauge if gauge is not None else GaugeChoice(0.0)
    rep = _report("reproduce-tables", p, [g], nmax=nmax, grid=grid_k,
                  scheme=scheme)
    rows: list[tuple] = []
    basis = fk.FockBasis(nmax)
    mats = {name: fk.build_observable(name, p, g.x0, basis)
            for name in _TABLE_OPS}

    states = _angular_states(idx_top)
    pairs = _neighbour_pairs(states)

    # routes 1 vs 2 at every in-range label pair; p at the table's pairs
    ell, lvl = (np.array(c)[:, None] for c in zip(*_angular_states(nmax // 2)))
    wide = (lvl + ell, lvl), (lvl.T + ell.T, lvl.T)
    l1s, n1s, l2s, n2s = _label_arrays(pairs)
    at = (n1s + l1s, n1s), (n2s + l2s, n2s)
    need = max(fk.exact_nmax(mats.values(), *wide),
               fk.exact_nmax([mats["p1"], mats["p2"]], *at))
    if need > nmax:
        raise fk.TruncationError(f"the operator entries the tables read are "
                                 f"exact only from nmax {need}")
    for name in _TABLE_OPS:
        diff = (fk.angular_element(name, ell, lvl, ell.T, lvl.T, p)
                - mats[name].entries(*wide))
        # Python's abs, with which numpy's vectorised complex modulus can
        # differ in the last bit, over the nonzero differences
        rep.add(f"angular:{name}:closed-vs-matrix",
                [abs(z) for z in diff[diff != 0].tolist()], ALGEBRA_TOL)

    same = n1s == n2s
    rep.add("angular:p-same-level-zero", [
        abs(z) for name in ("p1", "p2")
        for z in mats[name].entries(*at)[same].tolist()], ALGEBRA_TOL)

    eng = _ElementEngine(p, g, grid_k, scheme)
    for (l, n) in states:
        eng.load((l, n), wv.fock_state, g, p, n + l, n)
    ops = wv.position_ops(_TABLE_OPS, g, p)
    values = eng.elements({(name, pair): (pair[0], ops[name], pair[1])
                           for name in _TABLE_OPS for pair in pairs})
    for name in _TABLE_OPS:
        table = fk.angular_element(name, l1s, n1s, l2s, n2s, p).tolist()
        got = [values[name, pair] for pair in pairs]
        block = [("angular", name, (*bra, *ket), closed, val,
                  abs(closed - val))
                 for (bra, ket), closed, val in zip(pairs, table, got)]
        rows += block
        rep.add(f"angular:{name}:closed-vs-quadrature",
                [row[-1] for row in block], tol)

    # translation-eigenbasis table: intra-level rows act as differential
    # operators on the basis-change profiles
    sig = p.momentum_scale
    tsamples = np.linspace(-2.5 * sig, 2.5 * sig, 9)
    # one jet per profile, at the shifted coordinates (t, 0)
    at = (tsamples, 0.0)
    jets = [wv.t1_basis_function(k, p).jet(*at) for k in range(idx_top + 2)]
    # T1 and T2 raise and lower n+: prefactor times (up + sign * down), where
    # x + (-a)*y rounds as x - a*y
    ladder = {"T1": (1j * p.ladder_scale, -1.0),
              "T2": (p.sign * p.ladder_scale, 1.0)}
    for name in ("T1", "T2", "M3"):
        lhs, rhs = [], []
        for n in range(idx_top + 1):
            op = wv.t1rep_op(name, n, p)
            for npl in range(idx_top + 1):
                lhs.append(op.apply_jet(jets[npl], at))
                if name in ladder:
                    pre, sign = ladder[name]
                    down = jets[npl - 1].f if npl else 0.0
                    rhs.append(pre * (math.sqrt(npl + 1) * jets[npl + 1].f
                                      + sign * math.sqrt(npl) * down))
                else:
                    rhs.append(p.sign * p.hbar * (npl - n) * jets[npl].f)
                rows.append(("t1", name, (npl, n),
                             complex(rhs[-1][4]), complex(lhs[-1][4]),
                             float(abs(lhs[-1][4] - rhs[-1][4]))))
        lhs, rhs = np.array(lhs), np.array(rhs)
        scale = np.max([np.max(np.abs(rhs)), 1e-300])
        rep.add(f"t1:{name}:kernel-vs-ladder", np.abs(lhs - rhs) / scale, tol)

    dev_levels = _t1_level_rows(p, g, eng, ops, rows, idx_top)
    for name, dev in dev_levels.items():
        rep.add(f"t1:{name}:kernel-vs-quadrature", dev, tol)
    rep.settings["certified_k"] = eng.certified_k
    return rep, rows


def _t1_level_rows(p, g, eng: _ElementEngine, ops, rows, idx_top) -> dict:
    """Level-changing rows of the translation-eigenbasis table checked by
    quadrature on both sides: the operator element against the tabulated
    delta-kernel coefficient times the quadrature overlap.  ``ops`` holds
    the operators p1, p2 and L3 in the gauge g; angular states are read from
    ``eng`` under their ``(l, n)`` keys, or loaded there."""
    sig, c, s, hb = p.momentum_scale, p.ladder_scale, p.sign, p.hbar
    tvals = (0.0, 0.9 * sig)
    nplus_vals = (0, 2)

    def coeff(name, n1, n2):
        if name == "L3":  # tabulated only within a level
            return -s * hb * (2 * n1 + 1)
        if abs(n1 - n2) != 1:
            return 0.0
        pre = s if name == "p1" else (1j if n1 > n2 else -1j)
        return pre * c * math.sqrt(max(n1, n2))

    dev = {"p1": [], "p2": [], "L3": []}
    level_pairs = [(n2 + d, n2) for n2 in (0, 1, 3, 5) for d in (1, -1)
                   if 0 <= n2 + d <= idx_top]
    level_pairs += [(n, n) for n in (0, 2, 4, 6)]
    level_pairs += [(0, 2), (1, 4)]  # structurally zero velocity rows
    cases = [(t1, npl, n1, n2) for t1 in tvals for npl in nplus_vals
             for (n1, n2) in level_pairs]
    # level pairs sharing n2 share the overlap <t1, n2|n+, n2>, and its key
    requests = {}
    for case in cases:
        t1, npl, n1, n2 = case
        bra = ("t1", t1, n1)
        ket = (npl - n2, n2)  # the angular label of |n+, n->
        eng.load(bra, wv.t1_state, g, p, t1, n1)
        eng.load(ket, wv.fock_state, g, p, npl, n2)
        eng.load(("t1", t1, n2), wv.t1_state, g, p, t1, n2)
        requests["overlap", (t1, npl, n2)] = (("t1", t1, n2), None, ket)
        for name in ("p1", "p2", "L3") if n1 == n2 else ("p1", "p2"):
            requests[name, case] = (bra, ops[name], ket)
    values = eng.elements(requests)
    for name, case in requests:
        if name == "overlap":
            continue
        t1, npl, n1, n2 = case
        lhs = values[name, case]
        rhs = coeff(name, n1, n2) * values["overlap", (t1, npl, n2)]
        scale = hb * (2 * n1 + 1) if name == "L3" else c
        dev[name].append(abs(lhs - rhs) / scale)
        rows.append(("t1", name, (n1, n2, npl, t1), rhs, lhs, abs(lhs - rhs)))
    return dev


# ---------------------------------------------------------------------------
# Basis change between the translation and angular eigenbases
# ---------------------------------------------------------------------------


def run_basis_change(p: PhysicalParams, gauge: GaugeChoice | None = None,
                     grid_k: int = 80, scheme: str = "gauss_hermite",
                     seed: int = 7,
                     tol: float = QUAD_TOL) -> VerificationReport:
    """Check the closed-form basis-change coefficients against quadrature
    overlaps, their orthonormality, the level-phase law, and the
    reconstruction of angular wave functions from the translation basis;
    ``tol`` bounds all but the reconstruction, which is held to 1e-7."""
    g = gauge if gauge is not None else GaugeChoice(0.0)
    rep = _report("basis-change", p, [g], grid=grid_k, scheme=scheme,
                  seed=seed)
    sig = p.momentum_scale
    tvals = (0.0, -0.8 * sig, 0.8 * sig, 1.7 * sig)
    tlevel = (0.0, 0.8 * sig)

    # overlaps <n+, n-|t1, n-> (the first 36 at n- = 0) as one engine batch,
    # keyed (n+, n-, t1); angular states under their (l, n) label
    overlaps = [(npl, 0, t1) for npl in range(9) for t1 in tvals]
    overlaps += [(npl, nm, t1) for nm in (1, 2, 3) for npl in (0, 1, 3)
                 for t1 in tlevel]
    eng = _ElementEngine(p, g, grid_k, scheme)
    for npl, nm, t1 in overlaps:
        eng.load((npl - nm, nm), wv.fock_state, g, p, npl, nm)
        eng.load(("t1", t1, nm), wv.t1_state, g, p, t1, nm)
    values = eng.elements({
        (npl, nm, t1): ((npl - nm, nm), None, ("t1", t1, nm))
        for npl, nm, t1 in overlaps}).values()
    # closed forms in one array call per n+ or (n+, n-), in overlap order
    closed = np.concatenate(
        [fk.change_of_basis(npl, np.array(tvals), p) for npl in range(9)]
        + [fk.t1_fock_overlap(npl, nm, np.array(tlevel), p)
           for nm in (1, 2, 3) for npl in (0, 1, 3)])
    dev = [abs(v - c) for v, c in zip(values, closed)]
    rep.add("closed-vs-quadrature", dev[:36], tol)
    rep.add("level-phase", dev[36:], tol)

    # the coefficients on the line-rule nodes, once per n+.  Each is a
    # real number times a power of i, so a product of two has one nonzero
    # term per part and numpy's vectorised complex multiply (which fuses
    # multiply-adds) rounds it as the scalar product does
    line = quad.Grid1(grid_k, sig)
    coeffs = [fk.change_of_basis(npl, line.nodes, p) for npl in range(11)]
    pairs = [(npl, mpl) for npl in range(11) for mpl in range(npl + 1)]
    values = quad.integrate_rows((coeffs[npl] * np.conj(coeffs[mpl])
                                  for npl, mpl in pairs), line)
    rep.add("orthonormality", [
        abs(v - (1.0 if npl == mpl else 0.0))
        for v, (npl, mpl) in zip(values, pairs)], tol)

    rng = np.random.default_rng(seed)
    u = p.magnetic_length * rng.uniform(-2.5, 2.5, size=(20, 2))
    amp = math.sqrt(p.m * p.omega_c / (2.0 * math.pi * p.hbar))
    line = quad.Grid1(max(60, grid_k), sig)
    cases = ((0, 0), (1, 0), (2, 1), (1, 2), (3, 2))
    # one translation state per level and node, valued at every point at
    # once: a (node, point) table with the bits of the pointwise values
    states = {nm: np.array([wv.t1_state(g, p, tt, nm).jet(*u.T, 0).f
                            for tt in line.nodes.tolist()])
              for nm in {nm for _, nm in cases}}
    # per case, one row per point: a column of the table weighted by a real
    # number times a power of i, like the coefficients above
    tables = (states[nm]
              * np.conj(fk.t1_fock_overlap(npl, nm, line.nodes, p))[:, None]
              for npl, nm in cases)
    recs = iter(quad.integrate_rows((col for t in tables for col in t.T),
                                    line))
    # the targets stay pointwise: fock_state values on an array can differ
    # from them in the last bit
    dev = [abs(next(recs) - target.jet(u1, u2, 0).f) / amp
           for target in (wv.fock_state(g, p, npl, nm) for npl, nm in cases)
           for u1, u2 in u]
    rep.add("reconstruction", dev, 1e-7)
    return rep


# ---------------------------------------------------------------------------
# Classical dynamics
# ---------------------------------------------------------------------------


def classical_orbit(p: PhysicalParams, E: float | None = None,
                    xc=None) -> cl.TrajectoryParams:
    """The orbit of energy ``E`` (default 0.5) about the centre ``xc``
    (default the origin); with neither, the zero-point energy
    hbar omega_c / 2 about a centre off the origin."""
    if E is None and xc is None:
        lam = p.magnetic_length
        return cl.TrajectoryParams(0.5 * p.hbar * p.omega_c,
                                   (0.5 * lam, -0.25 * lam))
    return cl.TrajectoryParams(0.5 if E is None else E,
                               (0.0, 0.0) if xc is None else xc)


def _orbit_clock(p: PhysicalParams, dt=None, steps=None):
    """classical-sim's dt (default the closure check's, a thousandth of the
    period) and steps (default 10000), refused where a time overflows."""
    tick = 2.0 * math.pi / p.omega_c / 1000.0
    dt = tick if dt is None else dt
    steps = 10000 if steps is None else steps
    if not tick < math.inf:
        raise ValueError("the cyclotron period overflows")
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not steps * dt < math.inf:
        raise ValueError(f"the time {steps} * dt overflows")
    return dt, steps


def run_classical_sim(p: PhysicalParams, tp: cl.TrajectoryParams | None = None,
                      dt: float | None = None, steps: int | None = None,
                      method: str = "boris", x0=(0.0, 0.0), seed: int = 7,
                      tol: float = DRIFT_TOL):
    """Integrate a cyclotron orbit, emit the trajectory with its conserved
    charges, and check charge conservation, the charge relation, the
    equation-of-motion residual of the analytic solution, and closure;
    ``tol`` bounds the relative drift of the charges; the orbit defaults to
    ``classical_orbit(p)``.

    Returns the report and a ``(steps+1, 9)`` array of rows
    ``t, x1, x2, p1, p2, E, T1, T2, M3``."""
    period = 2.0 * math.pi / p.omega_c
    tp = tp or classical_orbit(p)
    dt, steps = _orbit_clock(p, dt, steps)
    rep = _report("classical-sim", p, [], scheme=method, seed=seed, dt=dt,
                  steps=steps, trajectory={"E": tp.E, "xc": list(tp.xc),
                                           "t0": tp.t0})

    s0 = cl.analytic_trajectory(p, tp, 0.0)
    path = cl.integrate(p, s0, dt, steps, method=method)
    charges = cl.noether_charges(p, x0, path)
    rows = np.column_stack((np.arange(steps + 1) * dt, path, *charges))

    p_amp = math.sqrt(2.0 * p.m * tp.E)
    for name, c, floor in zip(cl.NoetherCharges._fields, charges,
                              (0.0, p_amp, p_amp, tp.E / p.omega_c)):
        c0 = float(c[0])
        rep.add(f"drift:{name}", np.abs(c - c0)
                / max(abs(c0), floor, 1.0e-300), tol)

    # T ** 2 stays a scalar float power (libm pow, which numpy's square need
    # not match bit for bit), taken over blocks of Python floats; the rest
    # is elementwise, so exact in numpy
    e, t1, t2, m3 = charges
    tsq = np.fromiter((a ** 2 + b ** 2 for i in range(0, t1.size, 2 ** 16)
                       for a, b in zip(t1[i:i + 2 ** 16].tolist(),
                                       t2[i:i + 2 ** 16].tolist())),
                      float, t1.size)
    two_m = 2.0 * p.m
    resid = tsq - two_m * e - 2.0 * p.qB * m3
    scale = np.maximum(np.maximum(np.maximum(tsq, two_m * np.abs(e)),
                                  2.0 * np.abs(p.qB * m3)), 1.0)
    rep.add("relation-residual", np.abs(resid) / scale, 1e-10)
    del path, charges, c, e, t1, t2, m3, tsq, resid, scale  # not kept below

    # analytic solution satisfies the equation of motion: five-point stencils
    # at two step sizes with Richardson extrapolation as the independent
    # oracle (kills the truncation term, keeps round-off ~1e-11)
    rng = np.random.default_rng(seed)
    h = 1e-2 / p.omega_c
    # force floor: cyclotron force |qB| w l_B = m w^2 l_B at one magnetic
    # length, so the zero-energy orbit normalises finite-difference
    # round-off sensibly; w l_B stays finite where w ** 2 overflows
    force_scale = max(abs(p.qB) * p_amp / p.m,
                      abs(p.qB) * (p.omega_c * p.magnetic_length))
    # the equation of motion is translation invariant: differencing the
    # displacement from the centre keeps round-off independent of |xc|
    about_origin = replace(tp, xc=(0.0, 0.0))

    def stencils(t, step):
        xs = [np.asarray(cl.analytic_trajectory(p, about_origin,
                                                t + k * step).x)
              for k in (-2, -1, 0, 1, 2)]
        acc = (-xs[0] + 16 * xs[1] - 30 * xs[2] + 16 * xs[3] - xs[4]) \
            / (12 * step * step)
        vel = (xs[0] - 8 * xs[1] + 8 * xs[3] - xs[4]) / (12 * step)
        return acc, vel

    dev = []
    for t in rng.uniform(0.0, 3.0 * period, size=10):
        acc_h, vel_h = stencils(t, h)
        acc_2h, vel_2h = stencils(t, 2 * h)
        acc = (16.0 * acc_h - acc_2h) / 15.0
        vel = (16.0 * vel_h - vel_2h) / 15.0
        resid = p.m * acc - p.qB * np.array([vel[1], -vel[0]])
        # a zero residual reads 0.0 even where force_scale underflows to 0
        dev.append(np.divide(np.abs(resid), force_scale, out=np.zeros(2),
                             where=resid != 0))
    rep.add("ode-residual", dev, 1e-10)

    x1, x2 = cl.integrate(p, s0, period / 1000.0, 1000, method="boris")[-1, :2]
    gap = math.hypot(x1 - s0.x[0], x2 - s0.x[1])
    rep.add("closure:one-period", gap / p.magnetic_length, 1e-6)

    path = cl.integrate(p, s0, dt, steps, method="rk4")
    energy = cl.energy_observable(p)(0.0, 0.0, path[:, 2], path[:, 3])
    e0 = float(energy[0])
    rep.add("rk4-energy-drift", np.abs(energy - e0) / max(e0, 1.0e-300), tol)
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
    operator/state pairs.  Each representation (the plain one has
    generator zero) is one batch of an element engine of its own, which
    holds the jets of its four states; ``certified_k`` as for the scan."""
    g = GaugeChoice(0.0)
    rep = _report("heisenberg-demo", p, [], grid=grid_k, scheme=scheme)
    hb = p.hbar

    lams = [
        Poly2.zero(),
        Poly2({(1, 1): 0.5}),
        Poly2({(2, 0): 0.3, (0, 1): -0.7}),
        Poly2({(3, 0): 0.1, (0, 2): 0.4, (1, 0): -0.2}),
    ]
    states = {k: wv.fock_state(g, p, *k)
              for k in ((0, 0), (1, 0), (0, 1), (2, 1))}
    found, certified = [], []
    for lam in lams:
        eng = _ElementEngine(p, g, grid_k, scheme)
        for k, psi in states.items():
            eng.load(k, wv.phase_shifted, psi, lam, hb)
        conn = (lam.diff(1), lam.diff(2))
        x1, p1, p2 = (wv.schrodinger_op(cl.PolyObservable.coordinate(x), conn,
                                        hb) for x in ("u1", "p1", "p2"))
        ops = [(p1, (0, 0), (1, 0)), (p2, (0, 0), (0, 1)),
               (p1.compose(p1) + p2.compose(p2), (1, 0), (1, 0)),
               (x1.compose(p1), (1, 0), (2, 1)), (p2, (2, 1), (0, 1))]
        values = eng.elements({j: (bra, op, ket)
                               for j, (op, bra, ket) in enumerate(ops)})
        found.append(list(values.values()))
        certified.append(eng.certified_k)
    rep.settings["certified_k"] = _largest(certified)
    base, *dressed = found
    for i, values in enumerate(dressed):
        rep.add(f"flat-connection:lambda{i}",
                [abs(z - z0) for z, z0 in zip(values, base)], tol)
    return rep
