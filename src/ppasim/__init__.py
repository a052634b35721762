"""Simulation toolkit for phase estimation with partially postselected amplification.

A weak polarization filter turns a small imprinted phase theta into a large
polar rotation Theta of the surviving photons, concentrating the phase
information of many input photons into few detected ones.  This package
models the filtered states, their quantum and classical Fisher information,
the optimal polarimetry, the quasiprobability structure behind the
enhancement, and a Monte Carlo bench with realistic systematics.
"""

from .states import (
    DensityMatrix,
    Generator,
    InvalidGeneratorError,
    UndefinedAmplificationError,
    ZeroProbabilityError,
    amplified_angle,
    bloch_vector,
    direction_to_bloch,
    make_filter,
    phase_unitary,
    ppa_generator,
    pure_state,
)
from .fisher import (
    DegenerateMeasurementError,
    InconsistentDerivativeError,
    MeasurementDirection,
    PPAFamily,
    PurityError,
    SLDResult,
    cfi,
    optimal_measurement,
    qfi_bloch,
    qfi_postselected_pure,
    qfi_ppa_theory,
    sld,
    sld_closed_form,
    survival_probability,
)
from .quasiprob import (
    ConditionNotMetError,
    POVM,
    PreconditionError,
    ZeroNormalizerError,
    condition,
    filter_povm,
    kd_distribution,
    kd_table_closed_form,
    nonclassicality_gap,
    ppa_povm_sequence,
    projective_povm,
    verify_gap_equality,
)
from .bench import (
    BenchConfig,
    SweepRecord,
    misaligned_half_tangent,
    postselected_bloch,
    rng_stream,
    run_trials,
    systematic_shift_t,
)
from .tomography import simulate_tomography

__version__ = "0.1.0"
