"""Dense complex reference for the evolution engine in ``jcentropy.dynamics``.

Builds the closed-form Jaynes-Cummings propagator (Phoenix & Knight, Ann.
Phys. 186, 381 (1988)) as a dense (T, 2F, 2F) complex stack, conjugates the
initial state with it, U rho0 U^dag, and reduces every sample with generic
eigensolves.  It shares no arithmetic with the engine's gauged rotations.
"""

import numpy as np

from jcentropy import (InvalidParameter, TraceNotOne, TrajectoryData, ladder, ppt_report,
                       validate_density)
from jcentropy.entanglement import ARTIFACT_THRESHOLD, PptReport
from jcentropy.entropy import entropy_from_spectrum

# A partial trace keeps the trace of the joint state to rounding: tighter than TRACE_TOL.
PARTIAL_TRACE_TOL = 1e-13


def propagator_stack(f_dim: int, t_grid) -> np.ndarray:
    """Closed-form propagators for every grid time, shape (len(t_grid), 2F, 2F)."""
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


def partial_trace(rho, keep: str):
    """Reduce a joint state to one subsystem (``keep`` is "atom" or "field") by ``einsum``."""
    d_a, d_f = rho.require_joint()
    blocks = rho.mat.reshape(d_a, d_f, d_a, d_f)
    if keep == "atom":
        reduced, dims = np.einsum("ifjf->ij", blocks), (d_a,)
    elif keep == "field":
        reduced, dims = np.einsum("aiaj->ij", blocks), (d_f,)
    else:
        raise InvalidParameter(f"keep must be 'atom' or 'field', got {keep!r}")
    trace = complex(np.trace(reduced))
    if abs(trace - 1.0) > PARTIAL_TRACE_TOL:
        raise TraceNotOne(trace, PARTIAL_TRACE_TOL)
    return validate_density(reduced, dims)


def dense_states(rho0, t_grid) -> np.ndarray:
    """U(t) rho0 U(t)^dag for every grid time, complex128."""
    u = propagator_stack(rho0.dims[1], t_grid)
    return u @ rho0.mat @ u.conj().transpose(0, 2, 1)


def purity(rho) -> float:
    """Tr(rho^2) of a validated state, from its full matrix."""
    return float(np.vdot(rho.mat, rho.mat).real)


def excitation_expectation(rho) -> float:
    """Expectation of the conserved excitation number (photons + atomic inversion)."""
    n = np.arange(rho.dims[1], dtype=float)
    return float(np.real(np.diagonal(rho.mat)) @ np.concatenate([n + 1.0, n]))


def dense_trajectory(rho0, t_grid, threshold: float = ARTIFACT_THRESHOLD) -> TrajectoryData:
    """Every ``TrajectoryData`` column, the PPT ones included, on the dense path."""
    d_a, d_f = rho0.dims
    rho_t = dense_states(rho0, t_grid)
    blocks = rho_t.reshape(-1, d_a, d_f, d_a, d_f)
    r_atom = np.einsum("tifjf->tij", blocks)
    r_field = np.einsum("taiaj->tij", blocks)
    n = np.arange(d_f, dtype=float)
    report = ppt_report(rho_t, (d_a, d_f), threshold)
    return TrajectoryData(
        t=np.asarray(t_grid, dtype=float),
        s_atom=entropy_from_spectrum(np.linalg.eigvalsh(r_atom)),
        s_field=entropy_from_spectrum(np.linalg.eigvalsh(r_field)),
        s_joint=entropy_from_spectrum(np.linalg.eigvalsh(rho_t)),
        purity_atom=(np.abs(r_atom) ** 2).sum(axis=(1, 2)),
        purity_field=(np.abs(r_field) ** 2).sum(axis=(1, 2)),
        n_expectation=np.einsum("tii,i->t", rho_t, np.concatenate([n + 1.0, n])).real,
        **{f: getattr(report, f) for f in PptReport.__dataclass_fields__},
    )
