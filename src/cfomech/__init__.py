"""Coherent-feedback optomechanics: Gaussian entanglement of two mechanical
resonators coupled to a driven cavity whose decay is reshaped by a feedback
loop."""

from .params import (
    EffectiveModel,
    drive_amplitude,
    effective_cavity_params,
    effective_couplings,
    effective_model,
    rwa_validity,
    thermal_occupancy,
)
from .dynamics import (
    propagate,
    stability_eigen,
    state_space,
    steady_state_covariance,
    transition_and_noise,
)
from .entanglement import (
    initial_covariance,
    log_negativity,
    min_symplectic_eigenvalue_pt,
)
from .experiments import (
    ResultTable,
    RunConfig,
    SweepAxis,
    find_optimum,
    preset_config,
    run_points,
    run_preset,
    run_sweep,
)

__all__ = [
    # params
    "EffectiveModel", "drive_amplitude",
    "effective_cavity_params", "effective_couplings", "effective_model",
    "rwa_validity", "thermal_occupancy",
    # dynamics
    "propagate", "stability_eigen", "state_space",
    "steady_state_covariance", "transition_and_noise",
    # entanglement
    "initial_covariance", "log_negativity", "min_symplectic_eigenvalue_pt",
    # experiments
    "ResultTable", "RunConfig", "SweepAxis", "find_optimum", "preset_config",
    "run_points", "run_preset", "run_sweep",
]
__version__ = "0.1.0"
