"""Bloch-sphere sweeps of the entropy-exchange and entanglement diagnostics.

A :class:`SweepGrid` holds the axes, the time grid and the thermal field, built
once.  Each cell evolves one initial product state over the full time grid and
reduces the trajectory to scalar diagnostics; it is a pure function of the grid
and its index in the theta-major order, so the results are bitwise identical
for any worker count, and a sweep runs at most one process per cell.  A
computed fault (``error:<Class>``) or a diagnostic without signal (the exactly
stationary state has no entropy increments) is recorded in the cell status; bad
input refuses the call.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing

import numpy as np

from . import dynamics
from .entanglement import ARTIFACT_THRESHOLD, negativity_exponent
from .entropy import DEFAULT_EPS, exchange_parameter, mutual_entropy_ratio
from .errors import AllStepsSkipped, InvalidParameter, ValidationError
from .states import (BlochParams, FieldDistribution, FloatArray, bloch_qubit, product_state,
                     require_finite, require_n_bar, require_positive, thermal_field)

# Every SPOT_CHECK_STRIDE-th cell runs with per-sample spectrum verification;
# selection is deterministic so sweeps stay reproducible byte for byte.
SPOT_CHECK_STRIDE = 20

DIAGNOSTICS = frozenset({"exchange", "mutual", "ppt"})


@dataclasses.dataclass(frozen=True)
class SweepGrid:
    """Axes and shared physics parameters of one sweep, and the field every cell starts in."""

    theta_values: FloatArray
    r_values: FloatArray
    n_bar: float
    n_f: int
    t_grid: FloatArray
    field: FieldDistribution = dataclasses.field(init=False)

    def __post_init__(self):
        for name in ("theta_values", "r_values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            require_finite(name, arr)
            if arr.size == 0:
                raise InvalidParameter(f"{name} must be non-empty")
            if arr.size > 1 and np.min(np.diff(arr)) <= 0:
                raise InvalidParameter(f"{name} must be strictly increasing")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t_grid", dynamics._validate_grid(self.t_grid))
        if self.n_f < 1:  # the engine's rule; thermal_field checks the rest of n_f and n_bar
            raise InvalidParameter(f"n_f={self.n_f} must be >= 1")
        object.__setattr__(self, "field", thermal_field(self.n_bar, self.n_f))
        if self.r_values[0] <= 0 or self.r_values[-1] > 1:
            raise InvalidParameter("r_values must lie in (0, 1]")
        if self.theta_values[0] < -np.pi / 2 or self.theta_values[-1] > np.pi / 2:
            raise InvalidParameter("theta_values must lie in [-pi/2, pi/2]")

    @property
    def n_cells(self) -> int:
        return len(self.theta_values) * len(self.r_values)


@dataclasses.dataclass(frozen=True)
class SweepCell:
    """Diagnostics of one initial atomic state; None marks unavailable values.

    ``worst_negative`` is the smallest partial-transpose eigenvalue along the
    trajectory and ``artifact_magnitude`` the largest magnitude among the
    negatives below the artifact threshold.  On a cell with
    ``n_significant_negatives > 0`` the latter can be the onset of a genuine
    eigenvalue crossing the threshold band on its way to significance, not
    truncation noise, so read it together with the significant count.
    """

    theta: float
    r: float
    p: float | None
    r_bar: float | None
    e: float | None
    n_significant_negatives: int
    worst_negative: float
    artifact_magnitude: float
    status: str


def default_grid(
    n_bar: float,
    n_f: int,
    resolution: tuple[int, int] = (51, 51),
    t_max: float = 25.0,
    dt: float = 0.01,
) -> SweepGrid:
    """Standard sweep: theta across the full band, r in [0.02, 1].  Refuses a resolution
    below 1x1, and a trajectory too large for memory before allocating the time grid."""
    n_theta, n_r = resolution
    if n_theta < 1 or n_r < 1:
        raise InvalidParameter(f"grid resolution {resolution} must be at least 1x1")
    dynamics.require_memory(n_f + 2, samples=dynamics.sample_count(t_max, dt))
    return SweepGrid(
        theta_values=np.linspace(-np.pi / 2, np.pi / 2, n_theta),
        r_values=np.linspace(0.02, 1.0, n_r),
        n_bar=n_bar,
        n_f=n_f,
        t_grid=dynamics.time_grid(t_max, dt),
    )


def fixed_point(n_bar: float) -> BlochParams:
    """Atomic state whose populations match the field's Boltzmann ratio.

    At this point the excited/ground ratio equals n_bar / (n_bar + 1), both
    partial states are stationary under the evolution, and no entropy moves.
    """
    require_n_bar(n_bar)
    if n_bar == 0.0:
        raise InvalidParameter("n_bar=0.0 must be positive: the vacuum has no fixed point")
    r = 1.0 / (2.0 * n_bar + 1.0)  # 2 P_ground - 1, which cancels at large n_bar
    if r == 0.0:
        raise InvalidParameter(f"n_bar={n_bar} is too large: r = 1/(2 n_bar + 1) rounds to 0")
    return BlochParams(r=r, theta=-np.pi / 2, phi=0.0)


def _evaluate_cell(
    grid: SweepGrid,
    diagnostics: frozenset,
    eps: float,
    artifact_threshold: float,
    index: int,
) -> SweepCell:
    """Cell ``index`` of the theta-major order; every ``SPOT_CHECK_STRIDE``-th one verifies
    each sample's spectrum."""
    n_r = len(grid.r_values)
    theta, r = grid.theta_values[index // n_r], grid.r_values[index % n_r]
    status: list[str] = []
    p = r_bar = e = None
    n_sig = 0
    worst = 0.0
    art = 0.0
    try:
        atom = bloch_qubit(BlochParams(r=r, theta=theta, phi=0.0))
        data = dynamics.trajectory_data(product_state(atom, grid.field), grid.t_grid,
                                        ppt="ppt" in diagnostics,
                                        artifact_threshold=artifact_threshold,
                                        full_verification=index % SPOT_CHECK_STRIDE == 0)
        if "exchange" in diagnostics:
            try:
                p = exchange_parameter(data, eps).p
            except AllStepsSkipped:
                status.append("exchange_skipped")
        if "mutual" in diagnostics:
            try:
                r_bar = mutual_entropy_ratio(data, eps).r_bar
            except AllStepsSkipped:
                status.append("mutual_skipped")
        if "ppt" in diagnostics:
            n_sig = int(data.n_significant.max())
            worst = float(data.min_transpose_eigenvalue.min())
            art = float(data.artifact_magnitude.max())
            e = negativity_exponent(float(data.lambda_m.mean()))
    except ValidationError as exc:
        status.append(f"error:{type(exc).__name__}")
    return SweepCell(theta=float(theta), r=float(r), p=p, r_bar=r_bar, e=e,
                     n_significant_negatives=n_sig, worst_negative=worst,
                     artifact_magnitude=art, status="+".join(status) if status else "ok")


def run_sweep(
    grid: SweepGrid,
    diagnostics=("exchange", "mutual", "ppt"),
    eps: float = DEFAULT_EPS,
    artifact_threshold: float = ARTIFACT_THRESHOLD,
    workers: int = 1,
) -> list[SweepCell]:
    """Evaluate every (theta, r) cell; theta-major order, deterministic output.

    The cells run in ``min(workers, grid.n_cells)`` processes: in this one at one, in a
    pool otherwise; the result does not depend on the count.  Bad input raises
    :class:`InvalidParameter` before any cell runs.
    """
    diagnostics = frozenset(diagnostics)
    if not diagnostics or diagnostics - DIAGNOSTICS:
        raise InvalidParameter(f"diagnostics {sorted(diagnostics)}: not one or more of "
                               f"{sorted(DIAGNOSTICS)}")
    if workers < 1:
        raise InvalidParameter(f"workers={workers} must be >= 1")
    workers = min(workers, grid.n_cells)
    require_positive("eps", eps)
    require_positive("artifact_threshold", artifact_threshold)
    if "exchange" in diagnostics and grid.t_grid.size < 2:
        raise InvalidParameter("exchange: t_grid needs at least two samples")
    dynamics.require_memory(grid.n_f + 2, workers, grid.t_grid.size)

    cell = functools.partial(_evaluate_cell, grid, diagnostics, eps, artifact_threshold)
    indices = range(grid.n_cells)
    if workers == 1:
        return list(map(cell, indices))
    with multiprocessing.Pool(workers) as pool:
        return pool.map(cell, indices, chunksize=max(1, grid.n_cells // (workers * 8)))
