"""Partial transposition and negativity-based entanglement diagnostics.

A negative eigenvalue of the partially transposed density matrix certifies
entanglement.  On a truncated Fock basis the transposed matrix of an exactly
separable state can still show one spurious negative eigenvalue whose
magnitude tracks the discarded tail of the photon-number distribution, so
negatives are split into truncation artifacts and significant ones before any
verdict is drawn.  Positivity of the partial transpose is only a necessary
condition for separability at these dimensions (2 x N with N > 3), so a clean
spectrum proves nothing.

``_pt_columns`` reduces a PT spectrum to the four PT columns of
``dynamics.TrajectoryData``, whichever route computed the spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TraceNotOne
from .states import ComplexMatrix, FloatArray, eigvalsh, require_positive

# Well above the observed artifact scale (1e-16 .. 1e-18 at the default
# truncation) and below any physical negativity at these dimensions.
ARTIFACT_THRESHOLD = 1e-12
# Max |sum of eigenvalues - 1| of a partial transpose.
PT_TRACE_TOL = 1e-10

# E for a trajectory whose averaged peak negativity is exactly zero.
SEPARABLE_GRADE = float("-inf")


def partial_transpose(mat, dims: tuple[int, int]) -> ComplexMatrix:
    """Transpose the field factor: out[ia, jb] = mat[ib, ja].

    ``mat`` is one joint matrix or a ``(..., D, D)`` stack of them with
    ``dims = (d_atom, d_field)``.  The result is Hermitian and unit trace for
    a density matrix but not necessarily positive; its negative eigenvalues
    are the entanglement signal.
    """
    d_a, d_f = dims
    mat = np.asarray(mat)
    lead = mat.shape[:-2]
    blocks = mat.reshape(*lead, d_a, d_f, d_a, d_f)
    dim = d_a * d_f
    return np.ascontiguousarray(np.swapaxes(blocks, -1, -3)).reshape(*lead, dim, dim)


def _pt_columns(w: FloatArray, threshold: float) -> dict[str, np.ndarray]:
    """The four PT columns of ``TrajectoryData``, keyed by name, of ascending PT spectra
    ``w``, one or a stack.  Raises :class:`TraceNotOne` where a sum leaves 1 by more than
    ``PT_TRACE_TOL``; the caller checks ``threshold``."""
    totals = np.ravel(w.sum(axis=-1))
    worst = totals[np.argmax(np.abs(totals - 1.0))]
    if abs(worst - 1.0) > PT_TRACE_TOL:
        raise TraceNotOne(complex(worst), PT_TRACE_TOL)
    neg = w < 0.0
    significant = neg & (np.abs(w) >= threshold)
    return {
        "lambda_m": np.where(significant, w, 0.0).min(axis=-1),
        "n_significant": significant.sum(axis=-1),
        "min_transpose_eigenvalue": w[..., 0],
        "artifact_magnitude": np.where(neg & ~significant, -w, 0.0).max(axis=-1),
    }


def ppt_report(
    mat, dims: tuple[int, int], threshold: float = ARTIFACT_THRESHOLD
) -> dict[str, np.ndarray]:
    """Negativity analysis of one joint density matrix or a ``(..., D, D)`` stack: the
    ``_pt_columns`` of its partial transpose's spectrum, one entry per matrix."""
    require_positive("artifact_threshold", threshold)
    return _pt_columns(eigvalsh(partial_transpose(mat, dims)), threshold)


def negativity_exponent(lambda_mean: float) -> float:
    """E = log10 |lambda_mean|, or the separable-grade sentinel when it is zero.

    Applied to the time average of ``lambda_m`` over a trajectory, this is
    the entanglement measure of that trajectory.
    """
    if lambda_mean == 0.0:
        return SEPARABLE_GRADE
    return math.log10(abs(lambda_mean))
