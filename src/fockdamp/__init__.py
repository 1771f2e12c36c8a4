"""Truncated-Fock-space simulation of multi-photon damping cascades.

Dense Lindblad evolution, a closed population fast path, quantum-jump
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
from .dynamics import evolve
from .errors import (
    CutoffTooSmall,
    DimensionMismatch,
    FockdampError,
    GeneratorOverflow,
    NoClosedForm,
    NoInteriorMinimum,
    NonpositiveGammaB,
    ParseError,
    PositivityViolated,
    SeedStreamExhausted,
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
    min_cutoff_for_coherent,
    poisson_tail,
)
from .pauli import PopulationVector, evolve_populations, population_generator
from .trajectories import EnsembleResult, TrajectoryConfig, run_ensemble
from .twomode import (
    EliminationRecord,
    TwoModeParams,
    TwoModeResult,
    elimination_comparison,
    two_mode_evolve,
)

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the kernel implementation in use; NumPy is the only one."""
    return "numpy"
