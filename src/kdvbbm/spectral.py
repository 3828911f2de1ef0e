"""Periodic spectral toolbox: grid, the spectrum layout, multiplier symbols, dealiased products.

Conventions.  Fields live on the uniform grid x_j = -L + 2L*j/n of [-L, L) and are real.
Their Fourier-series coefficients c_k of

    f(x) = sum_k c_k exp(i*pi*k*x/L),      k = -n/2 .. n/2-1,

satisfy c_{-k} = conj(c_k), so the modes k = 0..n/2 fix them all.  A spectrum holds them
in half layout, n/2+1 entries

    d_k = (-1)^k c_k  (k = 0..n/2-1),      d_{n/2} = conj(c_{-n/2})/2,

the alternating phase absorbing the collocation offset x_0 = -L and the unpaired mode
-n/2 split evenly onto +-n/2: d is numpy's rfft of the samples over n, with index n/2
halved.  Wavenumbers and symbols are sampled at k = 0..n/2, and Parseval reads

    integral |f|^2 dx = 2L * sum_k |c_k|^2 = 2L * sum_{k=0}^{n/2} p_k |d_k|^2,

with the fold p = (1, 2, ..., 2, 4) of SpectralGrid.parseval.  spectrum_csv_rows alone
writes the coefficients c_k of k < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NonFiniteError, SymmetryError
from .params import CoefficientSet

SYMBOL_KINDS = ("varphi", "phi", "psi", "tau", "omega")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid on [-L, L) with a power-of-two number of modes."""

    n_modes: int
    half_length: float

    def __post_init__(self):
        n = self.n_modes
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"n_modes must be a power of two >= 4, got {n}")
        if not (self.half_length > 0.0 and np.isfinite(self.half_length)):
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")

    @property
    def nyquist(self) -> int:
        """n/2, the last index of half layout: the unpaired mode k = -n/2."""
        return self.n_modes // 2

    @cached_property
    def modes(self) -> np.ndarray:
        """Mode numbers k = 0..n/2 of half layout."""
        return _read_only(np.arange(self.nyquist + 1))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """xi_k = pi*k/L, k = 0..n/2."""
        return _read_only(np.pi * self.modes / self.half_length)

    @cached_property
    def derivative(self) -> np.ndarray:
        """i*xi_k, k = 0..n/2, with 0 at the unpaired mode: the symbol of dx on real fields."""
        return _read_only(np.append(1j * self.wavenumbers[:-1], 0.0))

    @cached_property
    def x(self) -> np.ndarray:
        """Collocation points -L + 2L*j/n."""
        n, L = self.n_modes, self.half_length
        return _read_only(-L + 2.0 * L * np.arange(n) / n)

    @cached_property
    def phase(self) -> np.ndarray:
        """(-1)^k, k = 0..n/2: the shift between series coefficients and half layout."""
        return _read_only(np.resize([1.0, -1.0], self.nyquist + 1))

    @cached_property
    def parseval(self) -> np.ndarray:
        """Parseval fold (1, 2, ..., 2, 4): d_0 stands for c_0 alone, d_k for c_k and
        c_{-k}, and d_{n/2} for half of c_{-n/2}."""
        fold = np.full(self.nyquist + 1, 2.0)
        fold[0], fold[-1] = 1.0, 4.0
        return _read_only(fold)


@dataclass(frozen=True)
class Spectrum:
    """A real field's Fourier-series coefficients in half layout (n/2+1 entries).

    The constructor is the package's field gate: a NaN or an Inf raises NonFiniteError, and
    c_{-k} = conj(c_k) holds by construction except at k = 0, where it asks d_0 to be real;
    an imaginary part above 1e-10 of the largest |d_k| raises SymmetryError.
    """

    grid: SpectralGrid
    half: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.half, dtype=complex)
        if d.shape != (self.grid.nyquist + 1,):
            raise ValueError(f"expected {self.grid.nyquist + 1} coefficients, got shape {d.shape}")
        if not np.isfinite(d).all():
            raise NonFiniteError("spectrum contains NaN or Inf")
        if abs(d[0].imag) > 1e-10 * np.abs(d).max():
            raise SymmetryError(f"spectrum is not that of a real field: Im d_0 = {d[0].imag:.3e}")
        object.__setattr__(self, "half", d)


def spectrum_from_samples(grid: SpectralGrid, samples) -> Spectrum:
    """The spectrum of a real field from its samples at the grid's collocation points: one
    rfft.  A NaN or Inf sample, or a sum that overflows, fails the Spectrum gate."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.fft.rfft(np.asarray(samples, dtype=float), norm="forward")
        d[-1] *= 0.5
    return Spectrum(grid, d)


def evaluate_symbol(kind: str, xi, coeffs: CoefficientSet):
    """Evaluate a multiplier symbol at wavenumber(s) xi, a numpy float at a scalar xi.

    varphi(xi) = 1 + gamma1*xi^2 + delta1*xi^4         (positive when gamma1, delta1 > 0)
    phi(xi)    = xi*(1 - gamma2*xi^2 + delta2*xi^4)/varphi(xi)
    psi(xi)    = xi/varphi(xi)
    tau(xi)    = (3*xi - 4*gamma*xi^3)/(4*varphi(xi))
    omega(xi)  = |xi|/(1 + xi^2)
    """
    xi = np.asarray(xi, dtype=float)
    xi2 = xi * xi
    varphi = 1.0 + coeffs.gamma1 * xi2 + coeffs.delta1 * xi2 * xi2
    if kind == "varphi":
        out = varphi
    elif kind == "phi":
        out = xi * (1.0 - coeffs.gamma2 * xi2 + coeffs.delta2 * xi2 * xi2) / varphi
    elif kind == "psi":
        out = xi / varphi
    elif kind == "tau":
        out = (3.0 * xi - 4.0 * coeffs.gamma * xi2 * xi) / (4.0 * varphi)
    elif kind == "omega":
        out = np.abs(xi) / (1.0 + xi2)
    else:
        raise ValueError(f"unknown symbol kind {kind!r}; expected one of {SYMBOL_KINDS}")
    return out


@lru_cache(maxsize=None)
def symbol_on_grid(grid: SpectralGrid, coeffs: CoefficientSet, kind: str) -> np.ndarray:
    """Symbol sampled at the grid wavenumbers, k = 0..n/2 (cached, read-only).  The odd ones
    (phi, psi, tau) read 0 at the unpaired mode -n/2, so i times them keeps a real field real."""
    arr = evaluate_symbol(kind, grid.wavenumbers, coeffs)
    if kind in ("phi", "psi", "tau"):
        arr[grid.nyquist] = 0.0
    return _read_only(arr)


def half_samples(d: np.ndarray, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """Samples (..., size) of half-layout spectra (..., n/2+1): the package's one irfft,
    batched, into out when given.  size n synthesizes the field, size 2n its factor-2
    padded grid; it reads index n/2 as all of c_{-n/2} when size is n, where half layout
    holds half of it (double it first), and as the split pair +-n/2 when size exceeds n."""
    return np.fft.irfft(d, size, norm="forward", out=out)


def half_truncated_sums(samples: np.ndarray, h: int, out: np.ndarray | None = None) -> np.ndarray:
    """Half-layout spectra (..., h+1) of real samples (..., size) on a padded grid of n = 2h
    to 2n points: the package's one truncation, an rfft over size, batched, into out
    (..., size/2+1) when given, returned as a view of its first h+1 entries with index h
    zeroed.  The scale 1/size is a power of two: each value is the unnormalized sum, scaled
    exactly."""
    d = np.fft.rfft(samples, norm="forward", out=out)[..., : h + 1]
    d[..., -1] = 0.0
    return d


def product_spectra(d: np.ndarray) -> np.ndarray:
    """Dealiased half-layout spectra (..., n/2+1) of the products of the fields stacked on
    axis -2 of d (..., factors, n/2+1): one padded synthesis, one product over the factor axis
    and one truncation serve the whole stack, so the unpaired mode of the result is 0.  The
    padded grid has the fewest points, a power of two, above 2 * factors * B, B the highest
    mode of the stack, clamped to between n and 2n: exact on every retained mode."""
    h = d.shape[-1] - 1
    live = np.flatnonzero(d.reshape(-1, h + 1).any(axis=0))
    band = int(live[-1]) if live.size else 0
    size = min(4 * h, max(2 * h, 2 << (d.shape[-2] * band).bit_length()))
    return half_truncated_sums(np.multiply.reduce(half_samples(d, size), axis=-2), h)


def spectrum_csv_rows(s: Spectrum):
    """Rows (k, xi_k, Re c_k, Im c_k, |c_k|) for k = -n/2..n/2-1 in increasing order: the one
    place the coefficients of k < 0 are written out."""
    h = s.grid.nyquist
    c = s.half * s.grid.phase  # c_k, k = 0..n/2-1
    c[-1] = 2.0 * np.conj(c[-1])  # c_{-n/2}, no longer split onto +-n/2
    xi = s.grid.wavenumbers
    coeffs = np.concatenate([c[h:], np.conj(c[h - 1 : 0 : -1]), c[:h]])
    wavenumbers = np.concatenate([-xi[h:0:-1], xi[:h]])
    for k, x, c_k in zip(range(-h, h), wavenumbers, coeffs):
        yield k, float(x), float(c_k.real), float(c_k.imag), float(abs(c_k))
