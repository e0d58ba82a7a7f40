"""Coherent-feedback optomechanics: Gaussian entanglement of two mechanical
resonators coupled to a driven cavity whose decay is reshaped by a feedback
loop."""

from .params import (
    EffectiveModel,
    FeedbackParams,
    PhysicalParams,
    ValidityReport,
    collective_coupling,
    drive_amplitude,
    effective_cavity_params,
    effective_couplings,
    effective_model,
    effective_model_from_drives,
    rwa_validity,
    squeezing_parameter,
    thermal_occupancy,
)
from .dynamics import (
    StateSpace,
    diffusion_matrix,
    drift_matrix,
    propagate,
    spectral_abscissa,
    stability_analytic,
    stability_eigen,
    state_space,
    steady_state_covariance,
    transition_and_noise,
)
from .entanglement import (
    initial_covariance,
    log_negativity,
    mechanical_submatrix,
    min_symplectic_eigenvalue_pt,
    physicality_check,
    symplectic_eigenvalues,
    two_mode_squeezed_covariance,
)
from .experiments import (
    ResultTable,
    RunConfig,
    SweepAxis,
    fig3_curves,
    find_optimum,
    preset_config,
    run_preset,
    run_sweep,
)

__all__ = [
    # params
    "EffectiveModel", "FeedbackParams", "PhysicalParams", "ValidityReport",
    "collective_coupling", "drive_amplitude", "effective_cavity_params",
    "effective_couplings", "effective_model", "effective_model_from_drives",
    "rwa_validity", "squeezing_parameter", "thermal_occupancy",
    # dynamics
    "StateSpace", "diffusion_matrix", "drift_matrix", "propagate",
    "spectral_abscissa", "stability_analytic", "stability_eigen", "state_space",
    "steady_state_covariance", "transition_and_noise",
    # entanglement
    "initial_covariance", "log_negativity", "mechanical_submatrix",
    "min_symplectic_eigenvalue_pt", "physicality_check", "symplectic_eigenvalues",
    "two_mode_squeezed_covariance",
    # experiments
    "ResultTable", "RunConfig", "SweepAxis", "fig3_curves", "find_optimum",
    "preset_config", "run_preset", "run_sweep",
]
__version__ = "0.1.0"
