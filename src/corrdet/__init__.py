"""Correlator and waveform design for mismatched signal detection."""

from .cgf import (
    BinarySymmetric,
    DomainError,
    Gaussian,
    Laplacian,
    MixtureBinaryLaplace,
    NoiseModel,
    Uniform,
    cgf_deriv,
    cgf_domain,
    cgf_eval,
    model_from_config,
    model_to_config,
)
from .design import (
    DegenerateSignal,
    DetectorDesign,
    GInverseNotConverged,
    QuantizerDesign,
    SignalAtoms,
    design_4ask,
    design_binary,
    design_classical,
    design_optimal,
    design_quantized,
    g_eval,
    g_inverse,
    tune_rho,
)
from .exponents import (
    ExponentResult,
    JointAtoms,
    PowerBudget,
    fa_exponent,
    md_exponent,
    md_objective,
    theta_for_fa,
)
from .extended import (
    AlphaSweepResult,
    ExtendedDetectorSpec,
    c_alpha_abs,
    c_alpha_energy,
    fa_exponent_abs,
    fa_exponent_energy,
    md_exponent_abs,
    md_exponent_energy,
    sweep_alpha_fixed_fa,
)
from .joint import (
    EnvelopeValue,
    JointDesignResult,
    StationaryLevels,
    c_tilde,
    classify_curvature,
    joint_md_exponent,
    result_atoms,
    stationary_levels,
    two_level_direct,
)
from .montecarlo import (
    DegenerateTilt,
    InsufficientData,
    SimConfig,
    SlopeEstimate,
    estimate_slope,
    fa_probability_exact,
    md_probability,
)

__version__ = "0.1.0"
