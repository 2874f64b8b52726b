"""Exact resonant atom-cavity evolution.

The interaction Hamiltonian sigma_+ a + sigma_- a^dag (coupling = 1, so time
is dimensionless) only mixes the pairs |e,n> and |g,n+1>, which makes the
propagator available in closed form: cosines on the diagonal and -i sin
couplings between the pair members, with Rabi frequency sqrt(n+1).  States
are evolved by building the propagator for each requested time directly from
the initial state, so there is no step-composition error.

Basis order is atom-major: all excited-sector Fock levels, then all
ground-sector levels.  On the truncated space the top excited level |e, n_f+1>
has no partner above it and is left invariant, which keeps the propagator
exactly unitary; its population is negligible whenever the truncation is
chosen so the tail mass is at the 1e-15 level.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .entanglement import ARTIFACT_THRESHOLD, PptReport, ppt_report
from .entropy import entropy_from_spectrum
from .errors import InvalidParameter, NotHermitian, NotPositive, TraceNotOne
from .linalg import FloatArray, eigvalsh
from .states import (
    HERMITICITY_TOL,
    PSD_FLOOR,
    TRACE_TOL,
    DensityMatrix,
    FieldDistribution,
    ladder,
    validate_density,
)

# Samples evolved per batched block; caps peak memory without changing results.
CHUNK = 512


def propagator_stack(f_dim: int, t_grid) -> np.ndarray:
    """Closed-form propagators for every grid time, shape (len(t_grid), 2F, 2F).

    ``f_dim = n_f + 2`` is the field dimension.  Each propagator is exactly
    unitary and U(0) = I.
    """
    if f_dim < 3:
        raise InvalidParameter(f"n_f={f_dim - 2} must be >= 1")
    t_grid = np.asarray(t_grid, dtype=float)
    _, beta = ladder(f_dim)
    phases = t_grid[:, None] * beta[None, 1:]  # pair frequencies sqrt(1)..sqrt(F-1)
    c = np.cos(phases)
    s = np.sin(phases)
    u = np.zeros((len(t_grid), 2 * f_dim, 2 * f_dim), dtype=np.complex128)
    e_idx = np.arange(f_dim - 1)          # excited levels 0..F-2
    g_idx = np.arange(f_dim, 2 * f_dim)   # ground levels 0..F-1
    u[:, e_idx, e_idx] = c
    u[:, f_dim - 1, f_dim - 1] = 1.0      # top excited level: no partner, invariant
    u[:, g_idx[0], g_idx[0]] = 1.0
    u[:, g_idx[1:], g_idx[1:]] = c
    u[:, e_idx, g_idx[1:]] = -1j * s
    u[:, g_idx[1:], e_idx] = -1j * s
    return u


_STACK_CACHE: dict[tuple[int, bytes], np.ndarray] = {}


def _cached_stack(f_dim: int, t_grid: FloatArray) -> np.ndarray:
    key = (f_dim, t_grid.tobytes())
    stack = _STACK_CACHE.get(key)
    if stack is None:
        stack = propagator_stack(f_dim, t_grid)
        if len(_STACK_CACHE) >= 2:
            _STACK_CACHE.pop(next(iter(_STACK_CACHE)))
        _STACK_CACHE[key] = stack
    return stack


def evolve(rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Conjugate the joint state by the propagator and revalidate the result."""
    _, d_f = rho0.require_joint()
    u = propagator_stack(d_f, [t])[0]
    out = u @ rho0.mat @ u.conj().T
    return validate_density(out, rho0.dims)


def diagonal_evolve(
    p_e: float, field_state: FieldDistribution, t: float
) -> tuple[tuple[float, float], FloatArray]:
    """Closed-form populations at time ``t`` for initially diagonal states.

    For an atom diagonal in the energy basis (excited weight ``p_e``) and a
    diagonal field, both partial states stay diagonal forever; their
    populations are finite sums of sin^2/cos^2 terms over the distribution.
    Returns ((excited, ground), per-level field populations).
    """
    if not 0.0 <= p_e <= 1.0:
        raise InvalidParameter(f"p_e={p_e} outside [0, 1]")
    p = np.asarray(field_state.probs, dtype=float)
    p_g = 1.0 - p_e
    t = float(t)
    alpha, beta = ladder(field_state.dim)
    sin2_a, cos2_a = np.sin(alpha * t) ** 2, np.cos(alpha * t) ** 2
    sin2_b, cos2_b = np.sin(beta * t) ** 2, np.cos(beta * t) ** 2

    excited = p_e * (p * cos2_a).sum() + p_g * (p * sin2_b).sum()
    ground = p_e * (p * sin2_a).sum() + p_g * (p * cos2_b).sum()

    shift_up = lambda a: np.append(a[1:], 0.0)      # level n+1 contribution
    shift_down = lambda a: np.concatenate(([0.0], a[:-1]))  # level n-1
    field_pops = p_e * (p * cos2_a + shift_down(p * sin2_a)) + p_g * (
        p * cos2_b + shift_up(p * sin2_b)
    )
    return (float(excited), float(ground)), field_pops


_EXCITATION_CACHE: dict[int, FloatArray] = {}


def _excitation_weights(f_dim: int) -> FloatArray:
    w = _EXCITATION_CACHE.get(f_dim)
    if w is None:
        n = np.arange(f_dim, dtype=float)
        w = np.concatenate([n + 1.0, n])  # |e,n> carries n+1 quanta, |g,n> carries n
        _EXCITATION_CACHE[f_dim] = w
    return w


def excitation_expectation(rho: DensityMatrix) -> float:
    """Expectation of the conserved excitation number (photons + atomic inversion)."""
    _, d_f = rho.require_joint()
    return float(np.real(np.diagonal(rho.mat)) @ _excitation_weights(d_f))


@dataclass(frozen=True)
class TrajectoryData:
    """Column-wise trajectory results.

    The last four columns are those of :class:`PptReport`, one entry per
    sample; they are None unless requested.
    """

    t: FloatArray
    s_atom: FloatArray
    s_field: FloatArray
    s_joint: FloatArray
    purity_atom: FloatArray
    purity_field: FloatArray
    n_expectation: FloatArray
    lambda_m: FloatArray | None = None
    n_significant: np.ndarray | None = None
    min_transpose_eigenvalue: FloatArray | None = None
    artifact_magnitude: FloatArray | None = None

    def __len__(self) -> int:
        return len(self.t)


def _validate_grid(t_grid) -> FloatArray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidParameter("t_grid must be a non-empty 1-d sequence")
    if grid[0] != 0.0:
        raise InvalidParameter(f"t_grid must start at 0, got {grid[0]}")
    if grid.size > 1 and np.min(np.diff(grid)) <= 0:
        raise InvalidParameter("t_grid must be strictly increasing")
    return grid


def trajectory_data(
    rho0: DensityMatrix,
    t_grid,
    ppt: bool = False,
    artifact_threshold: float = ARTIFACT_THRESHOLD,
    full_verification: bool = True,
) -> TrajectoryData:
    """Evolve ``rho0`` over the grid and collect all per-sample diagnostics.

    Each sample is produced from the initial state with a fresh closed-form
    propagator.  Every evolved matrix is checked for Hermiticity and unit
    trace; with ``full_verification`` its spectrum is also recomputed, which
    verifies positivity and yields the joint entropy per sample.  Without it
    the joint spectrum of the initial state is reused (exact under unitary
    evolution, at a fraction of the cost); callers doing this rely on the
    spot-checked unitarity of the propagator.
    """
    grid = _validate_grid(t_grid)
    d_a, d_f = rho0.require_joint()
    n_t = grid.size

    s_atom = np.empty(n_t)
    s_field = np.empty(n_t)
    s_joint = np.empty(n_t)
    purity_atom = np.empty(n_t)
    purity_field = np.empty(n_t)
    n_expect = np.empty(n_t)
    reports = []

    s_joint_initial = entropy_from_spectrum(rho0.eigenvalues)
    weights = _excitation_weights(d_f)
    u_all = _cached_stack(d_f, grid)

    for start in range(0, n_t, CHUNK):
        sl = slice(start, min(start + CHUNK, n_t))
        u = u_all[sl]
        rho_t = u @ rho0.mat @ u.conj().transpose(0, 2, 1)

        herm = np.abs(rho_t - rho_t.conj().transpose(0, 2, 1)).max()
        if herm > HERMITICITY_TOL:
            raise NotHermitian(float(herm), HERMITICITY_TOL)
        traces = np.einsum("tii->t", rho_t)
        worst = np.argmax(np.abs(traces - 1.0))
        if abs(traces[worst] - 1.0) > TRACE_TOL:
            raise TraceNotOne(complex(traces[worst]), TRACE_TOL)

        if full_verification:
            w_joint = eigvalsh(rho_t)
            low = float(w_joint[:, 0].min())
            if low < PSD_FLOOR:
                raise NotPositive(low, PSD_FLOOR)
            s_joint[sl] = entropy_from_spectrum(w_joint)
        else:
            s_joint[sl] = s_joint_initial

        blocks = rho_t.reshape(-1, d_a, d_f, d_a, d_f)
        r_atom = np.einsum("tifjf->tij", blocks)
        r_field = np.einsum("taiaj->tij", blocks)

        # 2x2 spectra in closed form
        a = r_atom[:, 0, 0].real
        b = r_atom[:, 1, 1].real
        off = np.abs(r_atom[:, 0, 1])
        half_gap = np.sqrt(0.25 * (a - b) ** 2 + off**2)
        mean = 0.5 * (a + b)
        w_atom = np.stack([mean - half_gap, mean + half_gap], axis=1)
        s_atom[sl] = entropy_from_spectrum(w_atom)
        purity_atom[sl] = a * a + b * b + 2.0 * off * off

        w_field = eigvalsh(r_field)
        s_field[sl] = entropy_from_spectrum(w_field)
        purity_field[sl] = (np.abs(r_field) ** 2).sum(axis=(1, 2))
        n_expect[sl] = np.einsum("tii,i->t", rho_t, weights).real

        if ppt:
            reports.append(ppt_report(rho_t, (d_a, d_f), artifact_threshold))

    ppt_columns = {
        f.name: np.concatenate([getattr(r, f.name) for r in reports])
        for f in fields(PptReport)
    } if ppt else {}
    return TrajectoryData(
        t=grid,
        s_atom=s_atom,
        s_field=s_field,
        s_joint=s_joint,
        purity_atom=purity_atom,
        purity_field=purity_field,
        n_expectation=n_expect,
        **ppt_columns,
    )
