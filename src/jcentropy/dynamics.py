"""Exact resonant atom-cavity evolution.

The interaction Hamiltonian sigma_+ a + sigma_- a^dag (coupling = 1, so time
is dimensionless) only mixes the pairs |e,n> and |g,n+1>, with Rabi frequency
sqrt(n+1) (Phoenix & Knight, Ann. Phys. 186, 381 (1988)).  In the field phase
gauge G = 1_atom (x) diag(i^n) the propagator is real orthogonal: the rotation
[[c, -s], [s, c]], c, s = cos, sin(sqrt(n+1) t), on each pair.  The initial
state is gauged once, sigma0 = G rho0 G^dag (entries times +-1 and +-i, so
exact), and each entry is turned by omega^(N_i - N_j), N the excitation
number, which commutes with the rotations; on a diagonal field that is the
local unitary exp(-i phi N), so every Bloch atom evolves in real arithmetic.
Each requested time rotates the 2x2 pair blocks of sigma0 that hold a nonzero
(3F of F^2 for a product state): no step composition, no dense propagator.
Both factors are local, so every diagnostic is read off the gauged state;
only ``evolve`` maps back.  The Hermiticity and trace checks, both partial
traces, the purities and the excitation number are read straight off the
rotated blocks.  Only an eigensolve of the partial transpose, or of a joint
state without band structure, scatters them into a dense sample.

The rotations mix only states of equal excitation number, and the one pair
that does not (|e,F-1>, |g,0>) never turns, so an entry of sigma0 with
|N_i - N_j| >= 2 that is 0 stays exactly 0.  So for every Bloch atom on a
diagonal field both spectra are those of real band matrices, and one band
solver, ``states.banded_eigvalsh`` (LAPACK's ``dsbev``, or the dense ``eigvalsh``
of each band where numpy's LAPACK has no ``dsbev``), takes them.  The reduced
field collects only entries with N_i - N_j = n - m, so it is
tridiagonal (half-bandwidth 1), and its eigenvalues are bit-identical to the
dense ``eigvalsh``'s at O(F^2) instead of O(F^3).  In excitation-number order
the joint state has half-bandwidth 3; under full verification its lower band
is filled straight from the rotated blocks, which moves the joint entropy by
rounding only.  The partial-transpose spectrum stays dense.

Basis order is atom-major: all excited-sector Fock levels, then all
ground-sector levels.  The top excited level |e, n_f+1> has no partner on the
truncated space and is left invariant, which keeps the evolution exactly
unitary; its population is negligible when the tail mass is at 1e-15.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .entanglement import ARTIFACT_THRESHOLD, _pt_columns, partial_transpose
from .entropy import EntropySeries, entropy_from_spectrum
from .errors import (ConservationViolation, InsufficientMemory, InvalidParameter, NotHermitian,
                     NotPositive, TraceNotOne)
from .states import (EXCITATION_DRIFT_TOL, HERMITICITY_TOL, PSD_FLOOR, REAL_GAUGE_ROUNDING,
                     TRACE_TOL, DensityMatrix, FieldDistribution, FloatArray, _ladder_populations,
                     banded_eigvalsh, eigvalsh, ladder, require_finite,
                     require_positive, validate_density)

# Bytes of one block of evolved samples.  The rotations are memory-bound, so a
# block that stays in cache beats a longer batch; results do not depend on it.
CHUNK_BYTES = 2 << 20
# Peak working set of one real trajectory with a margin, in blocks of evolved samples and
# dense joint matrices.  tracemalloc at D = 30, 96 and 228 measured up to 2.7 blocks with
# an eigensolve, 0.15 without one at D = 96.
_BLOCKS_LIVE, _MATRICES_LIVE = 6, 8
# Half-bandwidth of the joint state in excitation-number order (see _band_map).
_JOINT_KD = 3


def _field_phases(f_dim: int) -> np.ndarray:
    """Diagonal of G = 1_atom (x) diag(i^n), taken from an exact table of powers of i."""
    return np.tile(np.array([1, 1j, -1, -1j])[np.arange(f_dim) % 4], 2)


def _phi_factors(f_dim: int, omega: complex) -> np.ndarray:
    """omega^(N_i - N_j) for every entry, from a table of powers indexed by the gap."""
    powers = np.multiply.accumulate(np.full(f_dim, omega))
    table = np.concatenate([powers[::-1].conj(), [1.0], powers])
    quanta = _excitation_weights(f_dim).astype(int)
    return table[np.subtract.outer(quanta, quanta) + f_dim]


def _gauged(rho0: DensityMatrix) -> tuple[np.ndarray, complex]:
    """(G rho0 G^dag times omega^(N_i - N_j), omega); real where only rounding is imaginary."""
    d_a, d_f = rho0.require_joint()
    if d_a != 2:
        raise InvalidParameter(f"atom factor has dimension {d_a}; the model needs a qubit (2)")
    if d_f < 3:
        raise InvalidParameter(f"n_f={d_f - 2} must be >= 1")
    g = _field_phases(d_f)
    sigma = g[:, None] * rho0.mat * g.conj()
    quanta = _excitation_weights(d_f)
    one_apart = sigma[np.subtract.outer(quanta, quanta) == 1]
    ref = one_apart[np.argmax(np.abs(one_apart))]
    omega = complex(ref.real / abs(ref), -ref.imag / abs(ref)) if ref else 1.0
    turned = sigma if omega == 1.0 else sigma * _phi_factors(d_f, omega)
    if np.all(np.abs(turned.imag) <= REAL_GAUGE_ROUNDING * np.abs(turned) + np.finfo(float).tiny):
        return turned.real.copy(), omega
    return sigma, 1.0


def _excitation_banded(sigma0: np.ndarray) -> bool:
    """Whether the gauged state ``sigma0`` is real and its entries |N_i - N_j| >= 2 apart
    are 0.  Then, along its trajectory, the reduced field is real and tridiagonal, and
    the joint state, in excitation-number order, a real band of half-bandwidth 3."""
    if sigma0.dtype != np.float64:
        return False
    quanta = _excitation_weights(sigma0.shape[0] // 2)
    return not sigma0[np.abs(np.subtract.outer(quanta, quanta)) >= 2].any()


class _Blocks(NamedTuple):
    """The occupied 2x2 pair blocks of a gauged state; block b joins pairs k[b] and l[b]."""

    f_dim: int
    k: np.ndarray
    l: np.ndarray
    x: np.ndarray        # (n_blocks, 2, 2) entries at t = 0
    rows: np.ndarray     # (n_blocks, 2, 1) basis rows of each block
    cols: np.ndarray     # (n_blocks, 1, 2) basis columns of each block
    upper: np.ndarray    # the blocks with k <= l ...
    partner: np.ndarray  # ... and the index of their transpose (l, k)


def _pair_blocks(sigma0: np.ndarray) -> _Blocks:
    """The 2x2 blocks of ``sigma0`` over the pairs (|e,k>, |g,k+1>), k < F-1, and
    (|e,F-1>, |g,0>), which never rotates, that hold a nonzero or whose transpose does."""
    f_dim = sigma0.shape[0] // 2
    pairs = np.stack([np.arange(f_dim), np.r_[f_dim + 1 : 2 * f_dim, f_dim]], axis=1)
    x = sigma0[pairs[:, :, None, None], pairs]
    held = x.any(axis=(1, 3))
    k, l = np.nonzero(held | held.T)
    index = np.zeros((f_dim, f_dim), dtype=int)
    index[k, l] = np.arange(k.size)
    upper = np.flatnonzero(k <= l)
    return _Blocks(f_dim, k, l, x[k, :, l], pairs[k][:, :, None], pairs[l][:, None, :],
                   upper, index[l[upper], k[upper]])


def _band_map(blocks: _Blocks) -> tuple[np.ndarray, np.ndarray]:
    """Where the lower band of the joint state takes the entries of the rotated blocks.

    In excitation-number order, |g,0>; |e,0>, |g,1>; ...; |e,F-1>, the states
    with N quanta sit at 2N - 1 and 2N, so entries at most one quantum apart lie
    at most 3 positions apart.  Returns flat indices into one sample's
    ``(D, 4)`` lower band storage and into its ``(n_blocks, 2, 2)`` blocks.
    Entries above the diagonal are left out, and so are those below the band,
    in blocks through the pair (|e,F-1>, |g,0>): they are 0 on an
    excitation-banded state.
    """
    n = np.arange(blocks.f_dim)
    position = np.r_[2 * n + 1, 2 * n]  # of |e,n> and of |g,n>
    row, col = np.broadcast_arrays(position[blocks.rows], position[blocks.cols])
    offset = row - col
    kept = (offset >= 0) & (offset <= _JOINT_KD)
    return col[kept] * (_JOINT_KD + 1) + offset[kept], np.flatnonzero(kept)


def _band(x_t: np.ndarray, band_map: tuple[np.ndarray, np.ndarray], dim: int) -> np.ndarray:
    """The lower band storage ``(n, D, 4)`` of the samples whose rotated blocks are ``x_t``."""
    n = x_t.shape[0]
    band = np.zeros((n, dim, _JOINT_KD + 1))
    band.reshape(n, -1)[:, band_map[0]] = x_t.reshape(n, -1)[:, band_map[1]]
    return band


def _tridiagonal_band(a: np.ndarray) -> np.ndarray:
    """The lower band storage ``(n, F, 2)`` of the tridiagonal ``(n, F, F)`` stack ``a``:
    its diagonal and its first subdiagonal."""
    band = np.zeros(a.shape[:2] + (2,))
    band[:, :, 0] = a.diagonal(axis1=1, axis2=2)
    band[:, :-1, 1] = a.diagonal(-1, axis1=1, axis2=2)
    return band


def _rotate(blocks: _Blocks, times: FloatArray) -> np.ndarray:
    """R_k X_kl R_l^T for every occupied block at every time, shape (T, n_blocks, 2, 2)."""
    k, l, x = blocks.k, blocks.l, blocks.x
    alpha, _ = ladder(blocks.f_dim)  # pair frequencies sqrt(1)..sqrt(F-1), then 0
    phases = np.multiply.outer(times, alpha)
    c, s = np.cos(phases), np.sin(phases)
    ck, sk, cl, sl = (a[:, :, None] for a in (c[:, k], s[:, k], c[:, l], s[:, l]))
    r = np.empty((times.size,) + x.shape, x.dtype)  # C order, whatever the layout of c[:, k]
    np.subtract(ck * x[:, 0], sk * x[:, 1], out=r[:, :, 0])
    np.add(sk * x[:, 0], ck * x[:, 1], out=r[:, :, 1])
    # then the columns, in place: the products are formed before either column is written
    re, rg = r[..., 0], r[..., 1]
    turned = cl * re - sl * rg
    np.add(sl * re, cl * rg, out=rg)
    re[...] = turned
    return r


def _hermiticity_residual(blocks: _Blocks, x_t: np.ndarray) -> float:
    """max |rho - rho^dag| over the samples ``x_t`` of the blocks: each block with k <= l
    against its transpose, one entry at a time, so no temporary exceeds 1/8 of ``x_t``."""
    u, p = blocks.upper, blocks.partner
    return max(float(np.abs(x_t[:, u, i, j] - x_t[:, p, j, i].conj()).max())
               for i in (0, 1) for j in (0, 1))


def _joint_entropy(w_joint: FloatArray) -> FloatArray:
    """Entropy of each joint spectrum in ``w_joint``, once all pass the positivity check."""
    low = float(w_joint[:, 0].min())
    if low < PSD_FLOOR:
        raise NotPositive(low, PSD_FLOOR)
    return entropy_from_spectrum(w_joint)


def _basis_sum(a: np.ndarray) -> np.ndarray:
    """Sum along axis 1 from left to right, the order ``einsum`` adds a trace in; copied,
    so that the partial sums are freed."""
    return np.add.accumulate(a, axis=1)[:, -1].copy()


def _chunk_samples(dim: int, dtype) -> int:
    return max(1, CHUNK_BYTES // (dim * dim * np.dtype(dtype).itemsize))


def peak_bytes(f_dim: int, workers: int = 1, samples: int = 0) -> int:
    """Estimated peak array memory of ``workers`` concurrent trajectories of ``samples``
    time samples each.

    It sizes real runs: every Bloch atom on a diagonal field gauges to a real
    state.  Each output column is held twice per sample, in its blocks and joined.
    """
    dim = 2 * f_dim
    block = _chunk_samples(dim, float) * dim * dim * 8
    columns = samples * 2 * 8 * len(fields(TrajectoryData))
    return workers * (_BLOCKS_LIVE * block + _MATRICES_LIVE * dim * dim * 8 + columns)


def machine_bytes() -> int:
    """Physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(f_dim: int, workers: int = 1, samples: int = 0, extra: int = 0):
    """Raise :class:`InsufficientMemory` before a run that would not fit in memory: the
    trajectories of :func:`peak_bytes`, and ``extra`` bytes besides."""
    need, have = peak_bytes(f_dim, workers, samples) + extra, machine_bytes()
    if need > have:
        raise InsufficientMemory(need, have)


def evolve(rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Rotate the gauged state to time ``t``, undo the gauge and revalidate."""
    require_finite("t", t)
    sigma0, omega = _gauged(rho0)
    blocks = _pair_blocks(sigma0)
    sigma = np.zeros_like(sigma0)
    sigma[blocks.rows, blocks.cols] = _rotate(blocks, np.array([float(t)]))[0]
    sigma = sigma * _phi_factors(rho0.dims[1], omega).conj()
    g = _field_phases(rho0.dims[1])
    return validate_density(g.conj()[:, None] * sigma * g, rho0.dims)


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
    require_finite("t", t)
    t = float(t)
    alpha, beta = ladder(field_state.dim)
    (excited, ground), field_pops = _ladder_populations(
        p_e, field_state.probs, np.cos(alpha * t) ** 2, np.sin(alpha * t) ** 2,
        np.cos(beta * t) ** 2, np.sin(beta * t) ** 2)
    return (float(excited), float(ground)), field_pops


def _excitation_weights(f_dim: int) -> FloatArray:
    n = np.arange(f_dim, dtype=float)
    return np.concatenate([n + 1.0, n])  # |e,n> carries n+1 quanta, |g,n> carries n


@dataclass(frozen=True)
class TrajectoryData(EntropySeries):
    """Column-wise trajectory results: the entropy series, the excitation number, and the
    four columns of the partially transposed (PT) sample, None unless requested:
    ``lambda_m``, the most negative significant PT eigenvalue (0.0 when there is none);
    ``n_significant``, the count of negatives of magnitude at least the artifact threshold;
    ``min_transpose_eigenvalue``; and ``artifact_magnitude``, the largest magnitude among
    the negatives below the threshold (0.0 when there is none)."""

    n_expectation: FloatArray
    lambda_m: FloatArray | None = None
    n_significant: np.ndarray | None = None
    min_transpose_eigenvalue: FloatArray | None = None
    artifact_magnitude: FloatArray | None = None


def sample_count(t_max: float, dt: float) -> int:
    """The length of :func:`time_grid`, counted without building it: at least 2, as it
    refuses a ``dt`` that is not positive, ``t_max < dt`` and a count no float holds."""
    if not dt > 0:  # NaN too
        raise InvalidParameter(f"dt={dt} must be positive")
    if not t_max >= dt:
        raise InvalidParameter(f"t_max={t_max} must be >= dt={dt}")
    count = (t_max + dt / 2) / dt
    if not math.isfinite(count):
        raise InvalidParameter(f"dt={dt} gives more samples to t_max={t_max} than a float holds")
    return math.ceil(count)


def time_grid(t_max: float, dt: float) -> FloatArray:
    """The samples 0, dt, 2 dt, ... to ``t_max`` within half a step: bit-identical to
    ``np.arange(0.0, t_max + dt / 2, dt)``, which numpy fills as ``0.0 + i * dt``."""
    return dt * np.arange(sample_count(t_max, dt))


def _validate_grid(t_grid) -> FloatArray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidParameter("t_grid must be a non-empty 1-d sequence")
    require_finite("t_grid", grid)
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

    Each sample is rotated directly from the gauged initial state.  Every
    evolved sample is checked for Hermiticity and unit trace on its pair
    blocks, which hold all of its nonzero entries; with
    ``full_verification`` its spectrum is also recomputed, which verifies
    positivity and yields the joint entropy per sample.  Without it the joint
    spectrum of the initial state is reused (exact under unitary evolution,
    at a fraction of the cost); callers doing this rely on spot-checked
    samples for positivity.  Every trajectory passes the range checks of
    :class:`EntropySeries` and keeps the excitation number within
    ``EXCITATION_DRIFT_TOL``, or raises.  A bad ``artifact_threshold`` is refused on entry,
    with or without ``ppt``.
    """
    require_positive("artifact_threshold", artifact_threshold)
    grid = _validate_grid(t_grid)
    d_a, d_f = rho0.require_joint()
    s_joint_initial = entropy_from_spectrum(rho0.eigenvalues)
    weights = _excitation_weights(d_f)
    sigma0, _ = _gauged(rho0)
    banded = _excitation_banded(sigma0)
    blocks = _pair_blocks(sigma0)
    band_map = _band_map(blocks) if full_verification and banded else None
    # pair k joins |e,k> and |g,k+1 mod F>: what each reduction reads from which block
    k, l = blocks.k, blocks.l
    k_up, l_up = (k + 1) % d_f, (l + 1) % d_f
    on_diag = np.flatnonzero(k == l)
    coherent = np.flatnonzero(l == (k - 1) % d_f)  # entry (0, 1) is <e,k| rho |g,k>
    chunk = _chunk_samples(sigma0.shape[0], sigma0.dtype)
    dense = None
    if ppt or (full_verification and not banded):  # dense eigensolves
        dense = np.zeros((min(chunk, grid.size),) + sigma0.shape, sigma0.dtype)
    parts = []

    for start in range(0, grid.size, chunk):
        times = grid[start : start + chunk]
        x_t = _rotate(blocks, times)
        n = times.size

        herm = _hermiticity_residual(blocks, x_t)
        if herm > HERMITICITY_TOL:
            raise NotHermitian(herm, HERMITICITY_TOL)
        diag = np.zeros((n, 2 * d_f), x_t.dtype)
        diag[:, k[on_diag]] = x_t[:, on_diag, 0, 0]
        diag[:, d_f + k_up[on_diag]] = x_t[:, on_diag, 1, 1]
        traces = _basis_sum(diag)
        worst = np.argmax(np.abs(traces - 1.0))
        if abs(traces[worst] - 1.0) > TRACE_TOL:
            raise TraceNotOne(complex(traces[worst]), TRACE_TOL)

        if dense is not None:
            rho_t = dense[:n]
            rho_t[:, blocks.rows, blocks.cols] = x_t
        if full_verification:  # the spectra are freed before the PT solve
            s_joint = _joint_entropy(banded_eigvalsh(_band(x_t, band_map, sigma0.shape[0]))
                                     if banded else eigvalsh(rho_t))
        else:
            s_joint = np.full(n, s_joint_initial)

        # partial traces: the atom's from the diagonal and the coherences, the field's from
        # the same-sector entries, excited ones added first
        coh = np.zeros((n, d_f), x_t.dtype)
        coh[:, k[coherent]] = x_t[:, coherent, 0, 1]
        r_field = np.zeros((n, d_f, d_f), x_t.dtype)
        r_field[:, k, l] += x_t[:, :, 0, 0]
        r_field[:, k_up, l_up] += x_t[:, :, 1, 1]

        # 2x2 spectra in closed form
        a = _basis_sum(diag[:, :d_f].real)
        b = _basis_sum(diag[:, d_f:].real)
        off = np.abs(_basis_sum(coh))
        half_gap = np.sqrt(0.25 * (a - b) ** 2 + off**2)
        mean = 0.5 * (a + b)
        w_atom = np.stack([mean - half_gap, mean + half_gap], axis=1)
        part = {
            "s_atom": entropy_from_spectrum(w_atom),
            "s_field": entropy_from_spectrum(banded_eigvalsh(_tridiagonal_band(r_field))
                                             if banded else eigvalsh(r_field)),
            "s_joint": s_joint,
            "purity_atom": a * a + b * b + 2.0 * off * off,
            "purity_field": (np.abs(r_field) ** 2).sum(axis=(1, 2)),
            "n_expectation": _basis_sum(diag.real * weights),
        }
        if ppt:
            part.update(_pt_columns(eigvalsh(partial_transpose(rho_t, (d_a, d_f))),
                                    artifact_threshold))
        parts.append(part)

    data = TrajectoryData(t=grid, **{c: np.concatenate([p[c] for p in parts]) for c in parts[0]})
    drift = float(data.n_expectation.max() - data.n_expectation.min())
    if drift > EXCITATION_DRIFT_TOL:
        raise ConservationViolation("excitation number", drift, EXCITATION_DRIFT_TOL)
    return data
