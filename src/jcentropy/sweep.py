"""Bloch-sphere sweeps of the entropy-exchange and entanglement diagnostics.

Each grid cell evolves one initial product state over the full time grid and
reduces the trajectory to scalar diagnostics.  Cells are independent work
items: results are ordered theta-major by construction and are bitwise
identical for any worker count.  Numerical failures inside a cell (for
example the exactly stationary state, whose entropy increments all vanish)
are recorded in the cell status instead of aborting the sweep.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .entanglement import ARTIFACT_THRESHOLD, negativity_exponent
from .entropy import (
    DEFAULT_EPS,
    EntropySeries,
    exchange_parameter,
    mutual_entropy_ratio,
)
from .errors import (
    AllStepsSkipped,
    ConservationViolation,
    InvalidParameter,
    NoConvergence,
    ValidationError,
)
from .linalg import FloatArray
from .states import BlochParams, bloch_qubit, product_state, thermal_field

# Every SPOT_CHECK_STRIDE-th cell reruns with per-sample spectrum verification
# and conservation assertions; selection is deterministic so sweeps stay
# reproducible byte for byte.
SPOT_CHECK_STRIDE = 20
# Max excitation-number drift accepted along a spot-checked trajectory.
EXCITATION_DRIFT_TOL = 1e-12

DIAGNOSTICS = frozenset({"exchange", "mutual", "ppt"})


@dataclass(frozen=True)
class SweepGrid:
    """Axes and shared physics parameters of one sweep."""

    theta_values: FloatArray
    r_values: FloatArray
    n_bar: float
    n_f: int
    t_grid: FloatArray

    def __post_init__(self):
        for name in ("theta_values", "r_values", "t_grid"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size == 0:
                raise InvalidParameter(f"{name} must be non-empty")
            if arr.size > 1 and np.min(np.diff(arr)) <= 0:
                raise InvalidParameter(f"{name} must be strictly increasing")
            object.__setattr__(self, name, arr)
        if self.r_values[0] <= 0 or self.r_values[-1] > 1:
            raise InvalidParameter("r_values must lie in (0, 1]")
        if self.theta_values[0] < -np.pi / 2 or self.theta_values[-1] > np.pi / 2:
            raise InvalidParameter("theta_values must lie in [-pi/2, pi/2]")

    @property
    def n_cells(self) -> int:
        return len(self.theta_values) * len(self.r_values)


@dataclass(frozen=True)
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
    """Standard sweep: theta across the full band, r in [0.02, 1]."""
    n_theta, n_r = resolution
    return SweepGrid(
        theta_values=np.linspace(-np.pi / 2, np.pi / 2, n_theta),
        r_values=np.linspace(0.02, 1.0, n_r),
        n_bar=n_bar,
        n_f=n_f,
        t_grid=np.arange(0.0, t_max + dt / 2, dt),
    )


def fixed_point(n_bar: float) -> BlochParams:
    """Atomic state whose populations match the field's Boltzmann ratio.

    At this point the excited/ground ratio equals n_bar / (n_bar + 1), both
    partial states are stationary under the evolution, and no entropy moves.
    """
    if n_bar <= 0:
        raise InvalidParameter(f"n_bar={n_bar} must be positive")
    p_ground = (n_bar + 1.0) / (2.0 * n_bar + 1.0)
    return BlochParams(r=2.0 * p_ground - 1.0, theta=-np.pi / 2, phi=0.0)


def _evaluate_cell(
    theta: float,
    r: float,
    grid: SweepGrid,
    diagnostics: frozenset,
    eps: float,
    artifact_threshold: float,
    full_verification: bool,
) -> SweepCell:
    status: list[str] = []
    p = r_bar = e = None
    n_sig = 0
    worst = 0.0
    art = 0.0
    try:
        atom = bloch_qubit(BlochParams(r=r, theta=theta, phi=0.0))
        joint = product_state(atom, thermal_field(grid.n_bar, grid.n_f))
        data = dynamics.trajectory_data(
            joint,
            grid.t_grid,
            ppt="ppt" in diagnostics,
            artifact_threshold=artifact_threshold,
            full_verification=full_verification,
        )
        if full_verification:
            drift = float(data.n_expectation.max() - data.n_expectation.min())
            if drift > EXCITATION_DRIFT_TOL:
                raise ConservationViolation(
                    "excitation number", drift, EXCITATION_DRIFT_TOL
                )
        series = EntropySeries.from_trajectory(data)
        if "exchange" in diagnostics:
            try:
                p = exchange_parameter(series, eps).p
            except AllStepsSkipped:
                status.append("exchange_skipped")
        if "mutual" in diagnostics:
            try:
                r_bar = mutual_entropy_ratio(series, eps).r_bar
            except AllStepsSkipped:
                status.append("mutual_skipped")
        if "ppt" in diagnostics:
            n_sig = int(data.n_significant.max())
            worst = float(data.min_transpose_eigenvalue.min())
            art = float(data.artifact_magnitude.max())
            e = negativity_exponent(float(data.lambda_m.mean()))
    except (ValidationError, InvalidParameter, NoConvergence) as exc:
        status.append(f"error:{type(exc).__name__}")
    return SweepCell(
        theta=float(theta),
        r=float(r),
        p=p,
        r_bar=r_bar,
        e=e,
        n_significant_negatives=n_sig,
        worst_negative=worst,
        artifact_magnitude=art,
        status="+".join(status) if status else "ok",
    )


_WORKER_ARGS: dict = {}


def _init_worker(grid, diagnostics, eps, artifact_threshold):
    _WORKER_ARGS["grid"] = grid
    _WORKER_ARGS["diagnostics"] = diagnostics
    _WORKER_ARGS["eps"] = eps
    _WORKER_ARGS["artifact_threshold"] = artifact_threshold


def _cell_by_index(index: int) -> SweepCell:
    grid = _WORKER_ARGS["grid"]
    n_r = len(grid.r_values)
    theta = grid.theta_values[index // n_r]
    r = grid.r_values[index % n_r]
    return _evaluate_cell(
        theta,
        r,
        grid,
        _WORKER_ARGS["diagnostics"],
        _WORKER_ARGS["eps"],
        _WORKER_ARGS["artifact_threshold"],
        full_verification=(index % SPOT_CHECK_STRIDE == 0),
    )


def run_sweep(
    grid: SweepGrid,
    diagnostics=("exchange", "mutual", "ppt"),
    eps: float = DEFAULT_EPS,
    artifact_threshold: float = ARTIFACT_THRESHOLD,
    workers: int | None = None,
) -> list[SweepCell]:
    """Evaluate every (theta, r) cell; theta-major order, deterministic output.

    ``workers`` caps the process pool (defaults to the CPU count); the result
    does not depend on it.
    """
    diagnostics = frozenset(diagnostics)
    unknown = diagnostics - DIAGNOSTICS
    if unknown:
        raise InvalidParameter(f"unknown diagnostics: {sorted(unknown)}")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise InvalidParameter(f"workers={workers} must be >= 1")

    indices = range(grid.n_cells)
    if workers == 1 or grid.n_cells == 1:
        _init_worker(grid, diagnostics, eps, artifact_threshold)
        return [_cell_by_index(i) for i in indices]
    chunk = max(1, grid.n_cells // (workers * 8))
    with multiprocessing.Pool(
        workers,
        initializer=_init_worker,
        initargs=(grid, diagnostics, eps, artifact_threshold),
    ) as pool:
        return pool.map(_cell_by_index, indices, chunksize=chunk)


def exchange_region(cells, cutoff: float) -> list[SweepCell]:
    """Cells whose exchange parameter is defined and below ``cutoff``.

    Cutoffs below -1 select nothing since the parameter is bounded.
    """
    return [c for c in cells if c.p is not None and c.p < cutoff]
