"""Dense complex matrix helpers.

Operators and density matrices are plain square ``numpy`` arrays of
``complex128``; this module wraps the handful of operations the rest of the
package needs behind explicit error types.  Matrices here are small
(dimension of order a hundred), so everything is dense.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .errors import DimensionMismatch, NoConvergence

ComplexMatrix = npt.NDArray[np.complex128]
FloatArray = npt.NDArray[np.float64]


def as_complex_matrix(a) -> ComplexMatrix:
    """Coerce to a square complex128 array, rejecting non-square or non-finite input."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Tensor (Kronecker) product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def hermiticity_residual(h: ComplexMatrix) -> float:
    """Max elementwise |H - H^dag|."""
    h = np.asarray(h)
    return float(np.abs(h - h.conj().T).max()) if h.size else 0.0


def eigvalsh(h) -> FloatArray:
    """Ascending eigenvalues of a Hermitian matrix or a ``(..., D, D)`` stack.

    Raises :class:`NoConvergence` if the solver fails; the caller checks
    Hermiticity.
    """
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
