"""Initial-datum families used by runs and tests."""

from __future__ import annotations

import numpy as np

from .norms import bracket
from .spectral import SpectralGrid, Spectrum, spectrum_from_samples


def cos_mode(grid: SpectralGrid, k: int, amplitude: float) -> Spectrum:
    """amplitude * cos(pi*k*x/L): coefficients amplitude/2 at modes +-k."""
    if not (0 <= k < grid.n_modes // 2):
        raise ValueError(f"mode k must satisfy 0 <= k < n/2, got {k}")
    c = np.zeros(grid.nyquist + 1, dtype=complex)
    c[k] = amplitude if k == 0 else 0.5 * amplitude
    return Spectrum(grid, c * grid.phase)


def gaussian(grid: SpectralGrid, width: float, amplitude: float) -> Spectrum:
    """Periodized Gaussian bump amplitude * exp(-x^2/(2 width^2)) centered at 0."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    with np.errstate(over="ignore"):  # x/width overflows far out on a narrow bump: exp gives 0
        return spectrum_from_samples(grid, amplitude * np.exp(-0.5 * (grid.x / width) ** 2))


def gevrey_synthetic(
    grid: SpectralGrid, decay: float, roll_off: float = 0.0, amplitude: float = 1.0
) -> Spectrum:
    """Even analytic profile with prescribed exponential spectral decay.

    Coefficients are amplitude * exp(-decay*|xi_k|) * <xi_k>^(-roll_off), all
    real and positive, Nyquist zeroed.  The decay rate is the analyticity
    radius this datum advertises; roll_off > 0 adds polynomial tapering so the
    datum lies comfortably in Gevrey classes with sigma slightly below decay.
    """
    if decay < 0:
        raise ValueError(f"decay must be nonnegative, got {decay}")
    xi = grid.wavenumbers
    with np.errstate(over="ignore", invalid="ignore"):  # a coefficient not finite fails the gate
        c = (amplitude * np.exp(-decay * np.abs(xi)) * bracket(xi) ** (-roll_off)).astype(complex)
        c[grid.nyquist] = 0.0
        return Spectrum(grid, c * grid.phase)
