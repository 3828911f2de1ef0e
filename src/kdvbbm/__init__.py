"""Pseudo-spectral toolkit for a fifth-order KdV-BBM water-wave model.

Simulates the periodic initial-value problem with spectral accuracy, computes
Sobolev/Gevrey norms and the conserved energy, tracks the radius of spatial
analyticity along solutions, probes every multilinear estimate underlying the
local existence theory with randomized trials, and bounds its constant C_s.
"""

from .analyticity import (
    BoundInputs,
    RadiusFit,
    TrackedRun,
    estimate_radius,
    lower_bound_radius,
    tracked_run,
    upper_bound_radius,
)
from .dynamics import (
    PicardDiagnostics,
    Trajectory,
    evolve_ifrk4,
    linear_propagate,
    local_existence_time,
    picard_solve,
)
from .errors import (
    BlowUpError,
    ConfigError,
    ConstraintError,
    KdvBbmError,
    NoConvergenceError,
    NonFiniteError,
    NormOverflowError,
    SymmetryError,
)
from .estimates import (
    FailureDemo,
    TrialReport,
    existence_constant,
    failure_demo_bilinear,
    random_fields,
    run_trials,
)
from .fields import cos_mode, gaussian, gevrey_synthetic
from .norms import GevreyIndex, bracket, energy, gevrey_norm, h2_polynomial_sq, sobolev_norm
from .params import ABCDParams, CoefficientSet, DEFAULT_COEFFICIENTS, derive_coefficients
from .spectral import (
    SpectralGrid,
    Spectrum,
    evaluate_symbol,
    spectrum_csv_rows,
    spectrum_from_samples,
)

__version__ = "0.1.0"
