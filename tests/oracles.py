"""Independent reference computations the tests freeze expected values against.

Everything here deliberately avoids the package's FFT/padding code paths:
products are brute-force coefficient convolutions, norms are physical-space
quadrature sums.  The package keeps spectra in half layout (see kdvbbm.spectral);
the oracles work on the FFT layout, all n coefficients c_k ordered k = 0..n/2-1,
-n/2..-1 as numpy's fft returns them, and fft_to_half / half_to_fft convert.
"""

import numpy as np


def _alternating(length):
    return np.resize([1.0, -1.0], length)  # (-1)^k for k = 0..length-1


def fft_wavenumbers(grid):
    """xi_k = pi*k/L in FFT layout."""
    n = grid.n_modes
    return np.pi * np.fft.fftfreq(n, 1.0 / n) / grid.half_length


def hermitian_defect(c):
    """Relative deviation of an FFT-layout spectrum from c_{-k} = conj(c_k); ~0 for spectra of
    real fields."""
    c = np.asarray(c)
    n = c.shape[-1]
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(c - np.conj(c[(-np.arange(n)) % n])))) / scale


def fft_to_half(c):
    """Half layout (..., n/2+1) of FFT-layout real-field spectra (..., n): d_k = (-1)^k c_k for
    k < n/2 and d_{n/2} = conj(c_{-n/2})/2.  The unpaired mode -n/2 is exempt from the
    Hermitian check; a defect above 1e-10 of the largest |c_k| raises ValueError."""
    c = np.asarray(c, dtype=complex)
    half = c.shape[-1] // 2
    mirrored = np.take(c, -np.arange(half), axis=-1).conj()
    defect = np.abs(c[..., :half] - mirrored).max(axis=-1)
    if (defect > 1e-10 * np.abs(c).max(axis=-1)).any():
        raise ValueError("spectra must be those of real fields")
    d = c[..., : half + 1] * _alternating(half + 1)
    d[..., half] = 0.5 * np.conj(d[..., half])
    return d


def half_to_fft(d):
    """FFT layout (..., n) of half-layout spectra (..., n/2+1); inverts fft_to_half."""
    c = np.asarray(d) * _alternating(d.shape[-1])
    c[..., -1] = 2.0 * np.conj(c[..., -1])  # c_{-n/2}, no longer split onto +-n/2
    return np.concatenate([c, np.conj(c[..., -2:0:-1])], axis=-1)


def synthesize(c):
    """Real samples at the collocation points -L + 2L*j/n of an FFT-layout spectrum, by one
    complex inverse FFT.  Raises ValueError when the imaginary residual exceeds 1e-10 of the
    largest real sample."""
    c = np.asarray(c)
    n = c.shape[-1]
    w = n * np.fft.ifft(_alternating(n) * c)
    scale = float(np.max(np.abs(w.real)))
    if float(np.max(np.abs(w.imag))) > 1e-10 * (scale + np.finfo(float).tiny):
        raise ValueError("the synthesized samples are not real")
    return w.real


def convolve_project(grid, *coeff_arrays):
    """Exact product spectrum by direct convolution, projected onto the grid band.

    Takes FFT-layout coefficient arrays, convolves them as Fourier series, and
    keeps modes |k| < n/2 (the coarse Nyquist is zeroed, matching the
    dealiased-product contract).
    """
    n = grid.n_modes
    p = len(coeff_arrays)
    centered = [np.fft.fftshift(np.asarray(c)) for c in coeff_arrays]
    acc = centered[0]
    for c in centered[1:]:
        acc = np.convolve(acc, c)
    # acc index j corresponds to mode j - p*n/2
    offset = p * (n // 2)
    out = np.zeros(n, dtype=complex)
    for k in range(-(n // 2) + 1, n // 2):
        out[k % n] = acc[k + offset]
    return out


def radius_fit(grid, c, noise_floor=1e-8):
    """(sigma_hat, n_points) of the closed-form least-squares line of log|c_k| against |xi_k|
    over the FFT-layout modes |k| >= 2 above noise_floor times the peak; sigma_hat is None
    when fewer than 8 modes qualify."""
    n = grid.n_modes
    mags = np.abs(c)
    mask = (np.abs(np.fft.fftfreq(n, 1.0 / n)) >= 2) & (mags > noise_floor * mags.max())
    n_points = int(np.count_nonzero(mask))
    if n_points < 8:
        return None, n_points
    x, y = np.abs(fft_wavenumbers(grid)[mask]), np.log(mags[mask])
    xc, yc = x - x.mean(), y - y.mean()
    return max(0.0, -float(np.sum(xc * yc) / np.sum(xc * xc))), n_points


def l2_quadrature(grid, samples):
    """L^2 norm by the periodic rectangle rule (exact for band-limited fields)."""
    quad = 2.0 * grid.half_length / grid.n_modes
    return float(np.sqrt(quad * np.sum(np.asarray(samples) ** 2)))


def inner_quadrature(grid, f, g):
    quad = 2.0 * grid.half_length / grid.n_modes
    return float(quad * np.sum(np.asarray(f) * np.asarray(g)))


def richardson_order(err_coarse, err_fine):
    """Observed convergence order from two successive error levels."""
    return float(np.log2(err_coarse / err_fine))
