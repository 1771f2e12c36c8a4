"""Truncated-Fock-space simulation of multi-photon damping cascades.

Dense Lindblad integration, a closed population fast path, quantum-jump
trajectories and the unreduced two-mode exchange model, all describing one
bosonic mode whose losses are lowering monomials; the nonlinear channel
a^dag a a funnels classical input light into single-photon states.
"""

from .analysis import (
    Observables,
    SigmaMinimum,
    SteadyPrediction,
    TimeSeries,
    effective_rate,
    find_sigma_min,
    observables,
    steady_state_prediction,
)
from .channels import (
    JumpChannel,
    KerrTerm,
    linear_loss,
    nonlinear_loss,
    three_photon_loss,
    two_photon_loss,
)
from .dynamics import evolve, lindblad_rhs, superoperator_spectrum_probe
from .errors import (
    CutoffTooSmall,
    DimensionMismatch,
    FockdampError,
    NoClosedForm,
    NoInteriorMinimum,
    NonpositiveGammaB,
    ParseError,
    SeedStreamExhausted,
    StepSizeUnderflow,
    TraceDriftExceeded,
    ValidationError,
)
from .fock import (
    DensityMatrix,
    FockCutoff,
    PureState,
    annihilation_matrix,
    coherent_density,
    coherent_state,
    creation_matrix,
    fock_density,
    fock_state,
    jump_matrix,
    min_cutoff_for_coherent,
    number_matrix,
    poisson_tail,
)
from .integrate import IntegratorConfig
from .pauli import (
    PopulationVector,
    StripeTrajectory,
    StripeVector,
    evolve_populations,
    evolve_stripe,
    population_rates,
)
from .trajectories import EnsembleResult, TrajectoryConfig, run_ensemble
from .twomode import (
    EliminationRecord,
    TwoModeParams,
    TwoModeResult,
    TwoModeState,
    elimination_comparison,
    mode_b_occupation,
    partial_trace_a,
    partial_trace_b,
    product_with_vacuum,
    two_mode_evolve,
)

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the kernel implementation in use; NumPy is the only one."""
    return "numpy"
