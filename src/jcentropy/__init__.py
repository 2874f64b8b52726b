"""Exact resonant Jaynes-Cummings simulation with mixed atom and field states.

Builds truncated thermal-field and Bloch-ball atomic states, evolves them
with the closed-form Rabi rotations, and reduces trajectories to entropy
correlations (exchange parameter, mutual-entropy ratio) and entanglement
diagnostics (partial-transpose negativity).
"""

from .dynamics import (
    TrajectoryData,
    diagonal_evolve,
    evolve,
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
    entropy_from_spectrum,
    exchange_parameter,
    mutual_entropy_ratio,
    purity_rate_approx,
    purity_rate_exact,
)
from .errors import (
    AllStepsSkipped,
    ConservationViolation,
    DimensionMismatch,
    InsufficientMemory,
    InvalidParameter,
    MissingFactorization,
    NoConvergence,
    NotHermitian,
    NotPositive,
    RangeViolation,
    TraceNotOne,
    ValidationError,
)
from .states import (
    BlochParams,
    DensityMatrix,
    FieldDistribution,
    auto_truncate,
    bloch_qubit,
    eigvalsh,
    ladder,
    product_state,
    thermal_field,
    validate_density,
)
from .sweep import (
    SweepCell,
    SweepGrid,
    default_grid,
    fixed_point,
    run_sweep,
)

__version__ = "0.1.0"
