"""Sobolev norms, Gevrey norms, and the conserved quadratic energy.

All norms are computed from Fourier coefficients via Parseval with the bracket
weight <xi> = 1 + |xi| (not sqrt(1 + xi^2); the two are equivalent but the
constants differ, and every frozen value here assumes this bracket).
"""

from __future__ import annotations

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


def gevrey_weights(grid: SpectralGrid, sigma: float, s: float) -> np.ndarray:
    """Squared weights <xi>^{2s} exp(2*sigma*<xi>) on the grid, overflow-guarded."""
    br = bracket(grid.wavenumbers)
    exponent = 2.0 * sigma * float(np.max(br))
    if exponent > MAX_GEVREY_EXPONENT:
        raise NormOverflowError(
            f"2*sigma*<xi_max> = {exponent:.1f} exceeds {MAX_GEVREY_EXPONENT}; "
            "sigma is too large for this grid"
        )
    with np.errstate(over="ignore"):
        weights = br ** (2.0 * s) * np.exp(2.0 * sigma * br)
    if not np.isfinite(weights).all():
        raise NormOverflowError(f"the weight overflows at s = {s}; s is too large for this grid")
    return weights


def half_weights(weights: np.ndarray) -> np.ndarray:
    """Squared weights (n) in FFT layout, even in xi, folded to half layout (n/2+1) with the
    Parseval factors: d_k stands for c_k and c_{-k} (2), d_0 for c_0 alone (1) and d_{n/2}
    for half of c_{-n/2} (4; see spectral.half_spectrum)."""
    folded = 2.0 * weights[: weights.shape[-1] // 2 + 1]
    folded[0], folded[-1] = weights[0], 2.0 * folded[-1]
    return folded


def row_squares(grid: SpectralGrid, c: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted squares 2L sum_k w_k |c_k|^2 of spectra (..., n), one per row of c or, for one
    spectrum c (n), one per row of a C-contiguous weight table (rows, n): a row sum along the
    last axis equals the 1-D np.sum of that row bit for bit."""
    return 2.0 * grid.half_length * np.add.reduce(weights * (c.real**2 + c.imag**2), axis=-1)


def row_norms(grid: SpectralGrid, c: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted norms sqrt(2L sum_k w_k |c_k|^2) of spectra (..., n), one per row; of half-layout
    spectra (..., n/2+1) with the weights passed through half_weights."""
    return np.sqrt(row_squares(grid, c, weights))


def sobolev_norm(u: Spectrum, s: float) -> float:
    """H^s norm; reduces to the L^2 norm at s = 0."""
    return float(row_norms(u.grid, u.coeffs, gevrey_weights(u.grid, 0.0, s)))


def gevrey_norm(u: Spectrum, g: GevreyIndex) -> float:
    """G^{sigma,s} norm; equals sobolev_norm(u, s) when sigma = 0."""
    return float(row_norms(u.grid, u.coeffs, gevrey_weights(u.grid, g.sigma, g.s)))


def energy(u: Spectrum, coeffs: CoefficientSet) -> float:
    """The conserved functional: integral of eta^2 + gamma1*eta_x^2 + delta1*eta_xx^2.

    Spectrally this is 2L * sum_k (1 + gamma1*xi^2 + delta1*xi^4)|c_k|^2; the
    weight is exactly the polynomial varphi.
    """
    return float(row_squares(u.grid, u.coeffs, symbol_on_grid(u.grid, coeffs, "varphi")))


def h2_polynomial_weights(grid: SpectralGrid) -> np.ndarray:
    """The weight 1 + xi^2 + xi^4 of h2_polynomial_sq on the grid."""
    xi2 = grid.wavenumbers**2
    return 1.0 + xi2 + xi2 * xi2


def h2_polynomial_sq(u: Spectrum) -> float:
    """Squared H^2 norm with the polynomial weight 1 + xi^2 + xi^4.

    This is the weight for which the energy comparison with constants
    min/max{gamma1, delta1} is exact; the bracket-weight version carries an
    extra fixed equivalence factor.
    """
    return float(row_squares(u.grid, u.coeffs, h2_polynomial_weights(u.grid)))
