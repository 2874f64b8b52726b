"""Exact resonant Jaynes-Cummings simulation with mixed atom and field states.

Builds truncated thermal-field and Bloch-ball atomic states, evolves them
with the closed-form propagator, and reduces trajectories to entropy
correlations (exchange parameter, mutual-entropy ratio) and entanglement
diagnostics (partial-transpose negativity).
"""

from .dynamics import (
    TrajectoryData,
    diagonal_evolve,
    evolve,
    excitation_expectation,
    propagator_stack,
    trajectory_data,
)
from .entanglement import (
    PptReport,
    SEPARABLE_GRADE,
    negativity_exponent,
    partial_transpose,
    ppt_report,
)
from .entropy import (
    EntropySeries,
    ExchangeResult,
    MutualRatioResult,
    conditional_entropy,
    entropy_from_spectrum,
    exchange_parameter,
    mutual_entropy,
    mutual_entropy_ratio,
    purity,
    purity_rate_approx,
    purity_rate_exact,
    tsallis2,
    von_neumann,
)
from .errors import (
    AllStepsSkipped,
    ConservationViolation,
    DimensionMismatch,
    InvalidParameter,
    MissingFactorization,
    NoConvergence,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    ValidationError,
)
from .linalg import eigvalsh, kron
from .states import (
    BlochParams,
    DensityMatrix,
    FieldDistribution,
    auto_truncate,
    bloch_qubit,
    ladder,
    partial_trace,
    product_state,
    thermal_field,
    validate_density,
)
from .sweep import (
    SweepCell,
    SweepGrid,
    default_grid,
    exchange_region,
    fixed_point,
    run_sweep,
)

__version__ = "0.1.0"
