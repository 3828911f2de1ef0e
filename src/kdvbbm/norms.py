"""Sobolev norms, Gevrey norms, and the conserved quadratic energy.

All norms are computed from half-layout spectra via Parseval with the bracket
weight <xi> = 1 + |xi| (not sqrt(1 + xi^2); the two are equivalent but the
constants differ, and every frozen value here assumes this bracket).  Every weight
function returns squared weights at k = 0..n/2 times the Parseval fold of
SpectralGrid.parseval, so a weighted sum over half layout is the sum over all modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormOverflowError
from .params import CoefficientSet
from .spectral import Spectrum, SpectralGrid, symbol_on_grid

#: Largest allowed exponent 2*sigma*<xi_max>; keeps exp() well inside double range.
MAX_GEVREY_EXPONENT = 650.0


@dataclass(frozen=True)
class GevreyIndex:
    """The pair (sigma, s) selecting an exponentially weighted Sobolev topology."""

    sigma: float
    s: float

    def __post_init__(self):
        if not (self.sigma >= 0.0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a finite nonnegative real, got {self.sigma}")
        if not np.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")


def bracket(xi):
    """The weight <xi> = 1 + |xi|."""
    return 1.0 + np.abs(xi)


def gevrey_weights(grid: SpectralGrid, g: GevreyIndex) -> np.ndarray:
    """Squared weights <xi>^{2s} exp(2*sigma*<xi>) at g, folded; raises if they overflow here."""
    br = bracket(grid.wavenumbers)
    exponent = 2.0 * g.sigma * float(np.max(br))
    if exponent > MAX_GEVREY_EXPONENT:
        raise NormOverflowError(
            f"2*sigma*<xi_max> = {exponent:.4g} exceeds {MAX_GEVREY_EXPONENT}; "
            "sigma is too large for this grid"
        )
    with np.errstate(over="ignore"):
        weights = br ** (2.0 * g.s) * np.exp(2.0 * g.sigma * br)
    if not np.isfinite(weights).all():
        raise NormOverflowError(f"the weight overflows at s = {g.s}; s is too large for this grid")
    return grid.parseval * weights


def row_squares(grid: SpectralGrid, d: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    """Weighted squares 2L sum_k w_k |d_k|^2 of spectra (..., n/2+1), one per row of d, with
    one weight row w (n/2+1): a row sum along the last axis equals the 1-D np.sum of that row
    bit for bit.  The package's one weighted Parseval sum.  Given out, a real array of d's
    shape, w |d_k|^2 is formed in it, with the same bits."""
    squares = np.square(d.real, out=out)
    np.add(squares, np.square(d.imag), out=squares)
    np.multiply(weights, squares, out=squares)
    return 2.0 * grid.half_length * np.add.reduce(squares, axis=-1)


def row_norms(grid: SpectralGrid, d: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted norms sqrt(2L sum_k w_k |d_k|^2) of spectra (..., n/2+1), one per row."""
    return np.sqrt(row_squares(grid, d, weights))


def _finite_sum(u: Spectrum, weights: np.ndarray, what: str) -> float:
    """The weighted Parseval sum of u (row_squares), the one finiteness check of the four
    norms below: NormOverflowError, naming what, when the sum leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(row_squares(u.grid, u.half, weights))
    if not np.isfinite(total):
        raise NormOverflowError(f"{what} overflows")
    return total


def sobolev_norm(u: Spectrum, s: float) -> float:
    """H^s norm, the G norm at sigma = 0; reduces to the L^2 norm at s = 0."""
    return gevrey_norm(u, GevreyIndex(0.0, s))


def gevrey_norm(u: Spectrum, g: GevreyIndex) -> float:
    """G^{sigma,s} norm; NormOverflowError when the weights or the norm of this field overflow."""
    what = f"the G^(sigma,s) norm at sigma = {g.sigma}, s = {g.s}"
    return math.sqrt(_finite_sum(u, gevrey_weights(u.grid, g), what))


def energy_weights(grid: SpectralGrid, coeffs: CoefficientSet) -> np.ndarray:
    """The weight of energy, the symbol varphi, folded."""
    return grid.parseval * symbol_on_grid(grid, coeffs, "varphi")


def energy(u: Spectrum, coeffs: CoefficientSet) -> float:
    """The conserved functional: integral of eta^2 + gamma1*eta_x^2 + delta1*eta_xx^2.

    Spectrally this is 2L * sum_k (1 + gamma1*xi^2 + delta1*xi^4)|c_k|^2; the
    weight is exactly the polynomial varphi.
    """
    return _finite_sum(u, energy_weights(u.grid, coeffs), "the energy")


def h2_polynomial_weights(grid: SpectralGrid) -> np.ndarray:
    """The weight 1 + xi^2 + xi^4 of h2_polynomial_sq, folded."""
    xi2 = grid.wavenumbers**2
    return grid.parseval * (1.0 + xi2 + xi2 * xi2)


def h2_polynomial_sq(u: Spectrum) -> float:
    """Squared H^2 norm with the polynomial weight 1 + xi^2 + xi^4.

    This is the weight for which the energy comparison with constants
    min/max{gamma1, delta1} is exact; the bracket-weight version carries an
    extra fixed equivalence factor.
    """
    return _finite_sum(u, h2_polynomial_weights(u.grid), "the squared polynomial H^2 norm")
