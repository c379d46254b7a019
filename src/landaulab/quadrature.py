"""Deterministic 1-D and 2-D quadrature tuned to Gaussian-weighted
integrands; the brute-force oracle for every overlap and matrix element in
the verification suites.

Every reduction is correctly rounded: the real and imaginary parts of a
weighted sum equal ``math.fsum`` of the products bit for bit, whatever the
batch or block they are reduced in, so identical inputs produce
bit-identical results.  Every integral of a single integrand carries an
error estimate from a half-resolution companion rule, and integrands are
required to decay below 1e-12 of their peak on the outermost ring of nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "SupportOverflowError",
    "QuadResult",
    "Grid2",
    "inner_product",
    "matrix_element",
    "integrate_values",
    "integrate_rows",
    "line_integral",
    "SUPPORT_RATIO",
]

SUPPORT_RATIO = 1e-12


class SupportOverflowError(ValueError):
    """Raised when an integrand has not decayed at the grid boundary."""


class QuadResult(NamedTuple):
    value: complex
    error_estimate: float


@lru_cache(maxsize=None)
def _hermite_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and their weights against dt, computed
    once per node count."""
    t, w = hermgauss(k)
    # weights against dt, compensating the exp(-t^2) weight in log space
    wt = np.exp(np.log(w) + t * t)
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def _axis_gauss_hermite(k: int, centre: float, scale: float):
    if k < 3:
        raise ValueError("need at least 3 nodes per axis")
    t, wt = _hermite_rule(k)
    return centre + scale * t, wt * scale


def _axis_simpson(n: int, centre: float, extent: float):
    if n < 2 or n % 2:
        raise ValueError("Simpson rule needs an even interval count >= 2")
    x = np.linspace(centre - extent, centre + extent, n + 1)
    h = 2.0 * extent / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)


@dataclass(frozen=True)
class Grid2:
    """Tensor-product quadrature grid with positive weights."""

    scheme: str
    x1: np.ndarray
    w1: np.ndarray
    x2: np.ndarray
    w2: np.ndarray
    spec: tuple = ()

    @classmethod
    def gauss_hermite(cls, k: int, centre=(0.0, 0.0), scale=(1.0, 1.0)) -> "Grid2":
        if np.isscalar(scale):
            scale = (float(scale), float(scale))
        x1, w1 = _axis_gauss_hermite(k, centre[0], scale[0])
        x2, w2 = _axis_gauss_hermite(k, centre[1], scale[1])
        return cls("gauss_hermite", x1, w1, x2, w2,
                   (k, tuple(centre), tuple(scale)))

    @classmethod
    def simpson(cls, n: int, centre=(0.0, 0.0), extent=(1.0, 1.0)) -> "Grid2":
        if np.isscalar(extent):
            extent = (float(extent), float(extent))
        x1, w1 = _axis_simpson(n, centre[0], extent[0])
        x2, w2 = _axis_simpson(n, centre[1], extent[1])
        return cls("uniform_simpson", x1, w1, x2, w2,
                   (n, tuple(centre), tuple(extent)))

    @cached_property
    def points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened row-major meshes (X1, X2, W)."""
        X1, X2 = np.meshgrid(self.x1, self.x2, indexing="ij")
        W = np.outer(self.w1, self.w2)
        return X1.ravel(), X2.ravel(), W.ravel()

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        n1, n2 = len(self.x1), len(self.x2)
        mask = np.zeros((n1, n2), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask.ravel()

    @cached_property
    def coarse(self) -> "Grid2":
        """Half-resolution companion used for error estimates."""
        if self.scheme == "gauss_hermite":
            k, centre, scale = self.spec
            return Grid2.gauss_hermite(max(3, k // 2), centre, scale)
        n, centre, extent = self.spec
        half = max(2, (n // 2) + (n // 2) % 2)
        return Grid2.simpson(half, centre, extent)


# Rows reduced together by ``_fsum_rows``: about 512 KiB of float64 work
# buffer, so one level of the extraction stays in cache.
_BLOCK_VALUES = 1 << 16
# Largest magnitude extracted; beyond it 2**(e + M) could overflow, and such
# rows (and rows holding inf or nan) are left to math.fsum.
_EXTRACT_LIMIT = 2.0 ** 900


def _fsum_rows(x: np.ndarray) -> list[float]:
    """``math.fsum`` of every row of a 2-D float64 array, bit for bit; the
    array is overwritten.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31, 2008): with ``max|x| < 2**e``
    on a row of N values, ``sigma = 2**(e + M)`` and
    ``M = (N + 2).bit_length()``, ``q = (sigma + x) - sigma`` and ``x - q``
    are exact, and the q lie on a grid fine enough that their plain sum in
    any order is exact too.  Each level strips about 53 - M leading bits off
    every remainder; once all remainders are zero the exact row sum is the
    sum of the level sums, which ``math.fsum`` rounds once, exactly as it
    rounds the row itself.
    """
    rows, n = x.shape
    if n == 0:
        return [0.0] * rows
    shift = (n + 2).bit_length()
    block = max(1, _BLOCK_VALUES // n)
    out: list[float] = []
    for start in range(0, rows, block):
        work = x[start:start + block]
        tmp = np.abs(work)
        peak = tmp.max(axis=1)
        exact = peak <= _EXTRACT_LIMIT   # False for inf and nan rows
        fallback = {r: math.fsum(work[r].tolist())
                    for r in np.flatnonzero(~exact).tolist()}
        work[~exact] = 0.0
        peak[~exact] = 0.0
        levels = []
        while peak.any():
            _, e = np.frexp(peak)
            sigma = np.ldexp(1.0, e + shift)[:, None]
            np.add(work, sigma, out=tmp)
            tmp -= sigma
            levels.append(tmp.sum(axis=1).tolist())
            work -= tmp
            np.abs(work, out=tmp)
            peak = tmp.max(axis=1)
        parts = zip(*levels) if levels else [()] * len(work)
        out += [fallback[r] if r in fallback else math.fsum(level_sums)
                for r, level_sums in enumerate(parts)]
    return out


def _weighted_sums(values: np.ndarray, weights: np.ndarray) -> list[complex]:
    """Correctly rounded ``sum(values[r] * weights)`` for every row r."""
    prod = values * weights
    sums = _fsum_rows(np.concatenate((prod.real, prod.imag)))
    return [complex(a, b) for a, b in zip(sums[:len(prod)], sums[len(prod):])]


def _support_check(values: np.ndarray, grid: Grid2):
    """Boundary-decay check of every row of integrand values, in row order."""
    mags = np.abs(values)
    peak = mags.max(axis=1)
    boundary = mags[:, grid.boundary_mask].max(axis=1)
    failing = np.flatnonzero((peak != 0.0) & (boundary > SUPPORT_RATIO * peak))
    if failing.size:
        r = failing[0]
        raise SupportOverflowError(
            f"integrand boundary magnitude {boundary[r]:.3e} exceeds "
            f"{SUPPORT_RATIO:.0e} of peak {peak[r]:.3e}; enlarge the grid")


def integrate_values(fine: np.ndarray, coarse: np.ndarray,
                     grid: Grid2) -> QuadResult:
    """Integrate precomputed integrand values on a grid and its coarse
    companion; performs the boundary-decay check on the fine values."""
    val, = integrate_rows(fine[None, :], grid)
    val_c, = _weighted_sums(coarse[None, :], grid.coarse.points[2])
    return QuadResult(val, abs(val - val_c))


def integrate_rows(values: np.ndarray, grid: Grid2) -> list[complex]:
    """Integrals of many integrands on the fine grid alone, one per row of
    ``values``; each equals ``integrate_values(row, ..., grid).value`` bit for
    bit.  The boundary-decay check runs on every row, in row order."""
    _support_check(values, grid)
    return _weighted_sums(values, grid.points[2])


def inner_product(psi1, psi2, grid: Grid2) -> QuadResult:
    """<psi1|psi2> over the plane."""
    x1, x2, _ = grid.points
    xc1, xc2, _ = grid.coarse.points
    fine = np.conj(psi1.value(x1, x2)) * psi2.value(x1, x2)
    coarse = np.conj(psi1.value(xc1, xc2)) * psi2.value(xc1, xc2)
    return integrate_values(fine, coarse, grid)


def matrix_element(psi1, op, psi2, grid: Grid2) -> QuadResult:
    """<psi1|op|psi2> with the operator applied through the analytic
    derivatives of psi2."""
    x1, x2, _ = grid.points
    xc1, xc2, _ = grid.coarse.points
    fine = np.conj(psi1.value(x1, x2)) * op.apply(psi2, x1, x2)
    coarse = np.conj(psi1.value(xc1, xc2)) * op.apply(psi2, xc1, xc2)
    return integrate_values(fine, coarse, grid)


def line_integral(f: Callable, scheme: str = "gauss_hermite", k: int = 80,
                  centre: float = 0.0, scale: float = 1.0,
                  extent: float | None = None) -> QuadResult:
    """1-D integral of a Gaussian-dominated function over the real line
    (Gauss-Hermite) or a symmetric interval (Simpson)."""
    if scheme == "gauss_hermite":
        x, w = _axis_gauss_hermite(k, centre, scale)
        xc, wc = _axis_gauss_hermite(max(3, k // 2), centre, scale)
    elif scheme in ("simpson", "uniform_simpson"):
        ext = extent if extent is not None else 10.0 * scale
        x, w = _axis_simpson(k, centre, ext)
        half = max(2, (k // 2) + (k // 2) % 2)
        xc, wc = _axis_simpson(half, centre, ext)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    fine = np.asarray(f(x), dtype=complex)
    mags = np.abs(fine)
    peak = float(mags.max()) if mags.size else 0.0
    if peak > 0.0 and max(abs(fine[0]), abs(fine[-1])) > SUPPORT_RATIO * peak:
        raise SupportOverflowError("integrand has not decayed at the endpoints")
    coarse = np.asarray(f(xc), dtype=complex)
    val, = _weighted_sums(fine[None, :], w)
    val_c, = _weighted_sums(coarse[None, :], wc)
    return QuadResult(val, abs(val - val_c))
