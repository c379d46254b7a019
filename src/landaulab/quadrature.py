"""Deterministic 1-D and 2-D quadrature tuned to Gaussian-weighted
integrands; the brute-force oracle for every overlap and matrix element in
the verification suites.

Every integral is a row of integrand values on the nodes of a rule about 0
(:class:`Grid2` on the states' shifted coordinates u, :class:`Grid1` on the
line), and every row goes through :func:`integrate_rows`, which reduces a
stream of them in blocks.  Every reduction is correctly rounded: the real
and imaginary parts of a weighted sum equal ``math.fsum`` of the products
bit for bit, whatever the batch or block they are reduced in.
The one-row calls :func:`inner_product`, :func:`matrix_element` and
:func:`line_integral` are the tests' per-call references for the batches.

On every rule but an exact one, integrands are required to decay below
1e-12 of their peak on the outermost nodes: the outer ring of a 2-D grid,
the two endpoints of a 1-D rule.  An exact rule (``Grid2.exact``) is one
whose every integrand its caller has certified to be a polynomial times
the rule's Gauss-Hermite weight, of a degree the rule integrates exactly;
that degree certificate replaces the boundary-decay check there.
"""

from __future__ import annotations

import math
import threading
from itertools import islice
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .params import OriginMismatchError

__all__ = [
    "SupportOverflowError",
    "Grid1",
    "Grid2",
    "inner_product",
    "matrix_element",
    "integrate_rows",
    "line_integral",
    "SUPPORT_RATIO",
    "MAX_AXIS_SIZE",
]

SUPPORT_RATIO = 1e-12
# Largest node count per axis of a Gauss-Hermite rule, and interval count
# of a Simpson rule: from 371 nodes on, numpy's hermgauss returns zero or
# non-finite weights.  Either rule is refused above it before it is built.
MAX_AXIS_SIZE = 370


class SupportOverflowError(ValueError):
    """Raised when an integrand has not decayed at the grid boundary."""


@lru_cache(maxsize=None)
def _hermite_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and their weights against dt, computed
    once per node count."""
    t, w = hermgauss(k)
    # weights against dt, compensating the exp(-t^2) weight in log space
    wt = np.exp(np.log(w) + t * t)
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def _check_axis_size(n: int):
    if n > MAX_AXIS_SIZE:
        raise ValueError(f"{n} exceeds the largest rule size {MAX_AXIS_SIZE}")


def _axis_gauss_hermite(k: int, scale: float):
    if k < 3:
        raise ValueError("need at least 3 nodes per axis")
    _check_axis_size(k)
    t, wt = _hermite_rule(k)
    return scale * t, wt * scale


def _axis_simpson(n: int, extent: float):
    if n < 2 or n % 2:
        raise ValueError("Simpson rule needs an even interval count >= 2")
    _check_axis_size(n)
    x = np.linspace(-extent, extent, n + 1)
    h = 2.0 * extent / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)


class Grid1:
    """The k-node Gauss-Hermite rule about 0 on the real line, its nodes
    ``scale`` times the standard ones; the two endpoints are its boundary,
    always checked."""

    exact = False

    def __init__(self, k: int, scale: float = 1.0):
        self.nodes, self.weights = _axis_gauss_hermite(k, scale)
        self.boundary_mask = np.isin(np.arange(k), (0, k - 1))


@dataclass(frozen=True)
class Grid2:
    """Tensor product of one axis rule about 0 with itself, on the shifted
    coordinates u, with positive weights.  An ``exact`` grid skips the
    boundary-decay check: its caller has certified that the rule integrates
    each of its integrands exactly."""

    axis: np.ndarray
    axis_weights: np.ndarray
    exact: bool = False

    @classmethod
    def gauss_hermite(cls, k: int, scale: float = 1.0,
                      exact: bool = False) -> "Grid2":
        return cls(*_axis_gauss_hermite(k, scale), exact)

    @classmethod
    def simpson(cls, n: int, extent: float = 1.0) -> "Grid2":
        return cls(*_axis_simpson(n, extent))

    @cached_property
    def points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened row-major meshes (U1, U2, W)."""
        U1, U2 = np.meshgrid(self.axis, self.axis, indexing="ij")
        W = np.outer(self.axis_weights, self.axis_weights)
        return U1.ravel(), U2.ravel(), W.ravel()

    @property
    def weights(self) -> np.ndarray:
        return self.points[2]

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.ones((self.axis.size, self.axis.size), dtype=bool)
        mask[1:-1, 1:-1] = False
        return mask.ravel()


# Values reduced together: about 512 KiB of float64 work buffer, so one
# level of the extraction stays in cache.
_BLOCK_VALUES = 1 << 16
# Largest magnitude extracted; beyond it 2**(e + M) could overflow, and such
# rows (and rows holding inf or nan) are left to _fallback_sum.
_EXTRACT_LIMIT = 2.0 ** 900

_scratch = threading.local()


def _buffer(name: str, shape: tuple[int, int], dtype=float) -> np.ndarray:
    """Work array of ``shape``, one per name and thread, reused across calls
    while it holds at most ``_BLOCK_VALUES`` values: freed and re-allocated
    temporaries this size would fault in fresh pages on every call.  Every
    caller writes the array before reading it, so no value outlives a call.
    A larger one, needed only for a single row longer than the block, is
    allocated afresh."""
    size = shape[0] * shape[1]
    if size > _BLOCK_VALUES:
        return np.empty(shape, dtype)
    buf = getattr(_scratch, name, None)
    if buf is None:
        buf = np.empty(_BLOCK_VALUES, dtype)
        setattr(_scratch, name, buf)
    return buf[:size].reshape(shape)


def _fallback_sum(row: np.ndarray) -> float:
    """Sum of a row the extraction leaves out: with inf or nan, the IEEE
    result (nan for +inf with -inf); else the exact sum rounded once, as
    ``math.fsum`` rounds it where no partial sum overflows, and ±inf only
    where the rounded sum overflows."""
    special = row[~np.isfinite(row)]
    if special.size:
        with np.errstate(invalid="ignore"):
            return float(special.sum())
    # every double is an integer multiple of 2**-1074
    total = sum(n * (1 << 1074) // d
                for n, d in map(float.as_integer_ratio, row.tolist()))
    try:
        return total / (1 << 1074)  # integer division rounds correctly
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _fsum_rows(x: np.ndarray) -> list[float]:
    """``math.fsum`` of every row of a block, a 2-D float64 array, bit for
    bit where ``math.fsum`` returns; the block itself is left unchanged.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31, 2008), with one extraction
    constant for a whole block of rows.  Let the rows hold N values each,
    ``M = (N + 2).bit_length()``, and every value of the block lie below
    ``2**e`` in magnitude.  With ``sigma = 2**(e + M)``,
    ``q = (sigma + x) - sigma`` and ``x - q`` are exact, and the q lie on a
    grid fine enough that their plain sum in any order is exact too.  The
    remainders ``x - q`` are at most ``ulp(sigma) / 2 = 2**(e + M - 53)``,
    so the next level takes ``e - (52 - M)`` as its bound without looking
    at them again.

    The number of levels is fixed up front.  Every value of the block is a
    multiple of ``2**g``, where ``g`` is the exponent of the last bit of
    the smallest nonzero magnitude (at least -1074), and so is every q and
    every remainder.  After ``L = ceil((e - g) / (52 - M))`` levels each
    remainder is below ``2**g`` and hence exactly zero, which one final test
    confirms.  The exact row sum is then the sum of the level sums, which
    ``math.fsum`` rounds once, exactly as it rounds the row itself.  Rows
    above ``_EXTRACT_LIMIT``, inf or nan go to :func:`_fallback_sum`, which
    never raises.
    """
    rows, n = x.shape
    if not x.size:
        return [0.0] * rows
    shift = (n + 2).bit_length()
    step = 52 - shift
    tmp = _buffer("tmp", x.shape)
    work = _buffer("work", x.shape)
    np.abs(x, out=tmp)
    peak = tmp.max(axis=1)
    exact = peak <= _EXTRACT_LIMIT   # False for inf and nan rows
    fallback = {}
    cur = x
    if not exact.all():
        fallback = {r: _fallback_sum(x[r])
                    for r in np.flatnonzero(~exact).tolist()}
        cur = work
        np.copyto(cur, x)
        cur[~exact] = 0.0
        tmp[~exact] = 0.0
        peak[~exact] = 0.0
    levels = []
    top = float(peak.max())
    if top:
        # smallest nonzero magnitude: as integers the bit patterns of
        # non-negative doubles keep their order, and 0 - 1 wraps to the
        # largest; tmp is overwritten by the first level anyway
        pattern = tmp.view(np.uint64)
        np.subtract(pattern, 1, out=pattern)
        low = (pattern.min() + np.uint64(1)).view(np.float64)
        e = math.frexp(top)[1]
        g = max(math.frexp(float(low))[1] - 53, -1074)
        for _ in range(-(-(e - g) // step)):
            sigma = math.ldexp(1.0, e + shift)
            np.add(cur, sigma, out=tmp)
            tmp -= sigma
            levels.append(tmp.sum(axis=1).tolist())
            np.subtract(cur, tmp, out=work)
            cur = work
            e -= step
        if cur.any():
            raise AssertionError("extraction left a nonzero remainder")
    parts = zip(*levels) if levels else [()] * rows
    return [fallback[r] if r in fallback else math.fsum(level_sums)
            for r, level_sums in enumerate(parts)]


def _weighted_sums(values: np.ndarray, weights: np.ndarray) -> list[complex]:
    """Correctly rounded ``sum(values[r] * weights)`` for every row r of a
    block; ``values`` is left unchanged."""
    # one complex-by-real multiply, as ``values * weights`` rounds it: real
    # and imaginary products taken apart differ from it in the sign of
    # zeros and where a part is infinite
    prod = np.multiply(values, weights,
                       out=_buffer("prod", values.shape, complex))
    return list(map(complex, _fsum_rows(prod.real), _fsum_rows(prod.imag)))


def _support_check(values: np.ndarray, boundary_mask: np.ndarray):
    """Boundary-decay check of every row of a block of integrand values, in
    row order; ``boundary_mask`` marks the outermost nodes of the rule."""
    mags = np.abs(values, out=_buffer("mags", values.shape))
    peak = mags.max(axis=1)
    boundary = mags[:, boundary_mask].max(axis=1)
    failing = np.flatnonzero((peak != 0.0) & (boundary > SUPPORT_RATIO * peak))
    if failing.size:
        r = failing[0]
        raise SupportOverflowError(
            f"integrand boundary magnitude {boundary[r]:.3e} exceeds "
            f"{SUPPORT_RATIO:.0e} of peak {peak[r]:.3e}; enlarge the grid")


def integrate_rows(rows: Iterable, rule: Grid1 | Grid2) -> list[complex]:
    """Integrals over ``rule`` of many integrands, one per row of values on
    its nodes; ``rows`` is a 2-D array or any iterable of 1-D rows.

    Each row is copied, as it is read, into a reused block of at most
    ``_BLOCK_VALUES`` values (one row, if longer).  A full block, and the
    last, is support-checked row by row, unless the rule is exact, and then
    reduced before the next row is read.  A nested call, made while a row
    is computed, gathers its rows in a block of its own."""
    n = rule.weights.size
    depth = getattr(_scratch, "depth", 0)
    block = _buffer(f"rows{depth}", (max(1, _BLOCK_VALUES // n), n), complex)
    rows, out = iter(rows), []
    _scratch.depth = depth + 1
    try:
        while True:
            filled = 0
            for filled, row in enumerate(islice(rows, len(block)), 1):
                if np.shape(row) != (n,):
                    raise ValueError(
                        f"row of shape {np.shape(row)} on {n} nodes")
                block[filled - 1] = row
            if not rule.exact:
                _support_check(block[:filled], rule.boundary_mask)
            out += _weighted_sums(block[:filled], rule.weights)
            if filled < len(block):
                return out
    finally:
        _scratch.depth = depth


def _shifted_nodes(psi1, psi2, grid: Grid2):
    """The grid's nodes, read as the shifted coordinates u of both states."""
    if psi1.origin != psi2.origin:
        raise OriginMismatchError("the states have different origins")
    return grid.points[:2]


def inner_product(psi1, psi2, grid: Grid2) -> complex:
    """<psi1|psi2> over the plane."""
    u = _shifted_nodes(psi1, psi2, grid)
    row = np.conj(psi1.jet(*u, 0).f) * psi2.jet(*u, 0).f
    return integrate_rows([row], grid)[0]


def matrix_element(psi1, op, psi2, grid: Grid2) -> complex:
    """<psi1|op|psi2> with the operator applied through the analytic
    derivatives of psi2."""
    u = _shifted_nodes(psi1, psi2, grid)
    row = np.conj(psi1.jet(*u, 0).f) * op.apply_jet(psi2.jet(*u, op.order), u)
    return integrate_rows([row], grid)[0]


def line_integral(f: Callable, k: int = 80, scale: float = 1.0) -> complex:
    """Integral over the real line of a Gaussian-dominated function by the
    rule ``Grid1(k, scale)``; ``f`` is called once, on its nodes."""
    rule = Grid1(k, scale)
    return integrate_rows([f(rule.nodes)], rule)[0]
