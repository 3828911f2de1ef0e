"""Periodic spectral toolbox: grid, transforms, multiplier symbols, dealiased products.

Conventions.  Fields live on the uniform grid x_j = -L + 2L*j/n of [-L, L).
A spectrum holds the Fourier-series coefficients c_k of

    f(x) = sum_k c_k exp(i*pi*k*x/L),      k = -n/2 .. n/2-1,

stored in FFT layout (k = 0..n/2-1, -n/2..-1) so wavenumber arrays align with
numpy's fft output.  With this normalization Parseval reads

    integral |f|^2 dx = 2L * sum_k |c_k|^2.

The collocation offset x_0 = -L is absorbed by the alternating phase (-1)^k
when converting between FFT output and series coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NonFiniteError, SymmetryError
from .params import CoefficientSet

SYMBOL_KINDS = ("varphi", "phi", "psi", "tau", "omega", "kappa")


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

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode numbers in FFT layout: 0..n/2-1, -n/2..-1."""
        n = self.n_modes
        m = np.concatenate([np.arange(0, n // 2), np.arange(-(n // 2), 0)])
        m.setflags(write=False)
        return m

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """xi_k = pi*k/L in FFT layout."""
        xi = np.pi * self.modes / self.half_length
        xi.setflags(write=False)
        return xi

    @cached_property
    def x(self) -> np.ndarray:
        """Collocation points -L + 2L*j/n."""
        pts = -self.half_length + 2.0 * self.half_length * np.arange(self.n_modes) / self.n_modes
        pts.setflags(write=False)
        return pts

    @property
    def phase(self) -> np.ndarray:
        """(-1)^k, the shift between FFT coefficients and series coefficients."""
        return _alternating(self.n_modes)  # n/2 is even, so the sign keeps alternating at -n/2

    @property
    def nyquist(self) -> int:
        """Index of the unpaired mode k = -n/2."""
        return self.n_modes // 2


@dataclass(frozen=True)
class RealField:
    """Real samples of a field at the grid's collocation points."""

    grid: SpectralGrid
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.shape != (self.grid.n_modes,):
            raise ValueError(f"expected {self.grid.n_modes} samples, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("field samples contain NaN or Inf")
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class Spectrum:
    """Fourier-series coefficients of a field, in FFT layout."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (self.grid.n_modes,):
            raise ValueError(f"expected {self.grid.n_modes} coefficients, got shape {arr.shape}")
        object.__setattr__(self, "coeffs", arr)

    def hermitian_defect(self) -> float:
        """Relative deviation from c_{-k} = conj(c_k); ~0 for spectra of real fields."""
        c = self.coeffs
        n = self.grid.n_modes
        mirrored = np.conj(c[(-np.arange(n)) % n])
        scale = float(np.max(np.abs(c)))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(c - mirrored))) / scale


def transform_forward(f: RealField) -> Spectrum:
    """Series coefficients of a real field; round trip with transform_inverse."""
    grid = f.grid
    c = grid.phase * np.fft.fft(f.samples) / grid.n_modes
    return Spectrum(grid, c)


def transform_inverse(s: Spectrum) -> RealField:
    """Synthesize samples with one inverse FFT.

    Raises SymmetryError when the imaginary residual exceeds 1e-10 of the
    largest real sample, and NonFiniteError when a sample is NaN or Inf.
    """
    grid = s.grid
    w = grid.n_modes * np.fft.ifft(grid.phase * s.coeffs)
    scale = float(np.max(np.abs(w.real)))
    imag = float(np.max(np.abs(w.imag)))
    if imag > 1e-10 * (scale + np.finfo(float).tiny):
        worst = imag / (scale + 1e-300)
        raise SymmetryError(f"inverse transform has relative imaginary residual {worst:.3e}")
    return RealField(grid, w.real)


def evaluate_symbol(kind: str, xi, coeffs: CoefficientSet):
    """Evaluate a multiplier symbol at wavenumber(s) xi.

    varphi(xi) = 1 + gamma1*xi^2 + delta1*xi^4         (positive when gamma1, delta1 > 0)
    phi(xi)    = xi*(1 - gamma2*xi^2 + delta2*xi^4)/varphi(xi)
    psi(xi)    = xi/varphi(xi)
    tau(xi)    = (3*xi - 4*gamma*xi^3)/(4*varphi(xi))
    omega(xi)  = |xi|/(1 + xi^2)
    kappa(xi)  = (1 - gamma2*xi^2 + delta2*xi^4)/varphi(xi)   so phi = xi*kappa
    """
    scalar = np.isscalar(xi)
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
    elif kind == "kappa":
        out = (1.0 - coeffs.gamma2 * xi2 + coeffs.delta2 * xi2 * xi2) / varphi
    else:
        raise ValueError(f"unknown symbol kind {kind!r}; expected one of {SYMBOL_KINDS}")
    return float(out) if scalar else out


@lru_cache(maxsize=None)
def symbol_on_grid(grid: SpectralGrid, coeffs: CoefficientSet, kind: str) -> np.ndarray:
    """Symbol sampled at the grid wavenumbers (cached, read-only).  The odd ones (phi, psi,
    tau) read 0 at the unpaired mode -n/2, so i times them keeps a real field real."""
    arr = evaluate_symbol(kind, grid.wavenumbers, coeffs)
    if kind in ("phi", "psi", "tau"):
        arr[grid.nyquist] = 0.0
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=64)
def _alternating(length: int) -> np.ndarray:
    ph = np.resize([1.0, -1.0], length)  # (-1)^k for k = 0..length-1
    ph.setflags(write=False)
    return ph


def half_spectrum(c: np.ndarray) -> np.ndarray:
    """Half layout (..., n/2+1) of real-field spectra (..., n): d_k = (-1)^k c_k, k < n/2.

    Index n/2 carries conj(d_{-n/2})/2, the unpaired mode split evenly onto +-n/2 and
    exempt from the Hermitian check; a defect above 1e-10 raises SymmetryError.
    """
    half = c.shape[-1] // 2
    mirrored = np.take(c, -np.arange(half), axis=-1).conj()
    defect = np.abs(c[..., :half] - mirrored).max(axis=-1)
    if (defect > 1e-10 * np.abs(c).max(axis=-1)).any():
        raise SymmetryError("spectra must be those of real fields")
    d = c[..., : half + 1] * _alternating(half + 1)
    d[..., half] = 0.5 * np.conj(d[..., half])
    return d


def full_spectrum(d: np.ndarray) -> np.ndarray:
    """FFT layout (..., n) of half-layout spectra (..., n/2+1); inverts half_spectrum."""
    c = d * _alternating(d.shape[-1])
    c[..., -1] = 2.0 * np.conj(c[..., -1])  # c_{-n/2}, no longer split onto +-n/2
    return np.concatenate([c, np.conj(c[..., -2:0:-1])], axis=-1)


def half_samples(d: np.ndarray) -> np.ndarray:
    """Samples (..., n) of half-layout spectra (..., n/2+1), one batched irfft; it reads index
    n/2 once, as all of c_{-n/2}, where half layout holds half of it (double it first)."""
    return np.fft.irfft(d, 2 * (d.shape[-1] - 1), norm="forward")


def half_padded_samples(d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Samples (..., 2n) on the factor-2 padded grid of half-layout spectra: one batched irfft,
    written into out."""
    return np.fft.irfft(d, 4 * (d.shape[-1] - 1), norm="forward", out=out)


def truncation_scale(grid: SpectralGrid) -> float:
    """1/(2n), the factor half_truncated_sums leaves out: a power of two, so a caller that
    folds it into the symbol it applies next gets the same bits as scaling the spectra."""
    return 1.0 / (2 * grid.n_modes)


def half_truncated_sums(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Half-layout spectra (..., n/2+1) of real samples (..., 2n) on the padded grid, times 2n
    (see truncation_scale): one batched unnormalized rfft into out (..., n+1), returned as a
    view of its first n/2+1 entries with index n/2 zeroed (the dealiasing truncation)."""
    d = np.fft.rfft(samples, out=out)[..., : samples.shape[-1] // 4 + 1]
    d[..., -1] = 0.0
    return d


def product_spectra(d: np.ndarray) -> np.ndarray:
    """Dealiased half-layout spectra (..., n/2+1) of the products of the fields stacked on
    axis -2 of d (..., factors, n/2+1): one padded synthesis, one product over the factor axis
    and one truncation serve the whole stack, so the unpaired mode of the result is 0.  The
    padded grid has the fewest points, a power of two, above 2 * factors * B, B the highest
    mode of the stack, and at most 2n: exact on every retained mode, sized by the band."""
    h = d.shape[-1] - 1
    live = np.flatnonzero(d.reshape(-1, h + 1).any(axis=0))
    band = int(live[-1]) if live.size else 0
    size = min(4 * h, 2 << (d.shape[-2] * band).bit_length())  # 2 for a constant stack
    spectra = np.fft.rfft(
        np.multiply.reduce(np.fft.irfft(d, size, norm="forward"), axis=-2), norm="forward"
    )
    # modes below n/2 and below the padded grid's own Nyquist, which the product never reaches
    kept = min(h, size // 2)
    out = np.zeros((*spectra.shape[:-1], h + 1), complex)
    out[..., :kept] = spectra[..., :kept]
    return out


def spectrum_csv_rows(s: Spectrum):
    """Rows (k, xi_k, Re c_k, Im c_k, |c_k|) in increasing-k order."""
    n = s.grid.n_modes
    order = np.roll(np.arange(n), n // 2)  # FFT layout's -n/2..-1 first, then 0..n/2-1
    for i in order:
        c = s.coeffs[i]
        yield (
            int(s.grid.modes[i]),
            float(s.grid.wavenumbers[i]),
            float(c.real),
            float(c.imag),
            float(abs(c)),
        )
