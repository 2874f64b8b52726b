"""Atomic, field, and joint density-matrix construction.

The cavity field lives in a truncated Fock space: levels ``0..n_f`` carry a
Planck (thermal) distribution and one extra level at index ``n_f + 1`` holds
the entire truncated tail, so every state is exactly unit trace regardless of
where the basis is cut.  The atom is a qubit parameterized on the Bloch ball;
the joint space is atom (x) field with the atom index major, excited sector
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParameter,
    MissingFactorization,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)
from .linalg import (
    ComplexMatrix,
    FloatArray,
    as_complex_matrix,
    eigvalsh,
    hermiticity_residual,
    kron,
)

# Max elementwise |M - M^dag| accepted for a density matrix.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# Eigensolver noise floor at these dimensions; eigenvalues above it count as >= 0.
PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class FieldDistribution:
    """Truncated thermal photon-number distribution with a tail-lump level.

    ``probs`` has length ``n_f + 2``: the Planck weights for Fock levels
    ``0..n_f`` followed by the lumped residual probability.
    """

    n_bar: float
    n_f: int
    probs: FloatArray

    @property
    def dim(self) -> int:
        return self.n_f + 2

    @property
    def tail_mass(self) -> float:
        return float(self.probs[-1])

    def density_matrix(self) -> "DensityMatrix":
        """The diagonal field state on the truncated space."""
        mat = np.diag(self.probs).astype(np.complex128)
        return DensityMatrix(mat, (self.dim,), np.sort(self.probs))


def ladder(f_dim: int) -> tuple[FloatArray, FloatArray]:
    """Rabi frequencies of the truncated Fock ladder, indexed by field level n.

    alpha[n] = sqrt(n+1) couples |e,n> to |g,n+1>; beta[n] = sqrt(n) couples
    |g,n> to |e,n-1>.  The top excited level has no partner above it after
    truncation and is therefore uncoupled: alpha[-1] = 0.
    """
    n = np.arange(f_dim, dtype=float)
    alpha = np.sqrt(n + 1.0)
    alpha[-1] = 0.0
    return alpha, np.sqrt(n)


@dataclass(frozen=True)
class BlochParams:
    """Bloch-ball coordinates of a qubit state: vector length and two angles.

    ``theta`` is the longitudinal angle in [-pi/2, pi/2]; positive values tip
    the state toward the excited pole.  ``phi`` is azimuthal and irrelevant
    for populations.
    """

    r: float
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.r <= 1.0:
            raise InvalidParameter(f"Bloch vector length r={self.r} outside (0, 1]")
        if not -np.pi / 2 <= self.theta <= np.pi / 2:
            raise InvalidParameter(f"theta={self.theta} outside [-pi/2, pi/2]")
        if not 0.0 <= self.phi < 2 * np.pi:
            raise InvalidParameter(f"phi={self.phi} outside [0, 2*pi)")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix tagged with its tensor factorization.

    ``dims`` is ``(2, n_f + 2)`` for joint atom-field states or a singleton
    for subsystem states.  ``eigenvalues`` (ascending) are computed once at
    validation and reused by entropy calculations.
    """

    mat: ComplexMatrix
    dims: tuple[int, ...]
    eigenvalues: FloatArray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def is_joint(self) -> bool:
        return len(self.dims) == 2

    def require_joint(self) -> tuple[int, int]:
        if not self.is_joint:
            raise MissingFactorization(
                f"operation needs a bipartite state; dims recorded as {self.dims}"
            )
        return self.dims[0], self.dims[1]


def validate_density(
    mat,
    dims: tuple[int, ...],
    herm_tol: float = HERMITICITY_TOL,
    trace_tol: float = TRACE_TOL,
    psd_floor: float = PSD_FLOOR,
) -> DensityMatrix:
    """Check Hermiticity, unit trace, and positivity; return the validated state.

    Raises :class:`NotHermitian`, :class:`TraceNotOne`, or :class:`NotPositive`
    with the measured residual.
    """
    m = as_complex_matrix(mat)
    if int(np.prod(dims)) != m.shape[0]:
        raise MissingFactorization(f"dims {dims} do not multiply to dimension {m.shape[0]}")
    residual = hermiticity_residual(m)
    if residual > herm_tol:
        raise NotHermitian(residual, herm_tol)
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > trace_tol:
        raise TraceNotOne(tr, trace_tol)
    w = eigvalsh(m)
    if w[0] < psd_floor:
        raise NotPositive(float(w[0]), psd_floor)
    return DensityMatrix(m, tuple(int(d) for d in dims), w)


def thermal_field(n_bar: float, n_f: int) -> FieldDistribution:
    """Planck distribution for one cavity mode, truncated at Fock level ``n_f``.

    P_n = n_bar^n / (n_bar + 1)^(n+1) for n <= n_f; the residual mass goes to
    the lump level, so the probabilities sum to one exactly.
    """
    if n_bar < 0:
        raise InvalidParameter(f"n_bar={n_bar} must be >= 0")
    if n_f < 0:
        raise InvalidParameter(f"n_f={n_f} must be >= 0")
    n_f = int(n_f)
    probs = np.zeros(n_f + 2)
    probs[0] = 1.0 / (n_bar + 1.0)
    ratio = n_bar / (n_bar + 1.0)
    for n in range(n_f):
        probs[n + 1] = probs[n] * ratio
    probs[n_f + 1] = max(0.0, 1.0 - probs[: n_f + 1].sum())
    return FieldDistribution(float(n_bar), n_f, probs)


def auto_truncate(n_bar: float, tol: float = 1e-14) -> int:
    """Smallest ``n_f`` whose field entropy is converged to within ``tol``.

    Scans upward until adding one more retained Fock level changes the
    distribution's von Neumann entropy by less than ``tol``.
    """
    if n_bar < 0:
        raise InvalidParameter(f"n_bar={n_bar} must be >= 0")
    if tol <= 0:
        raise InvalidParameter(f"tol={tol} must be positive")
    from .entropy import entropy_from_spectrum  # deferred: entropy imports this module

    n_f = 1
    s_prev = entropy_from_spectrum(thermal_field(n_bar, n_f).probs)
    while True:
        s_next = entropy_from_spectrum(thermal_field(n_bar, n_f + 1).probs)
        if abs(s_next - s_prev) < tol:
            return n_f
        n_f += 1
        s_prev = s_next


def bloch_qubit(params: BlochParams) -> DensityMatrix:
    """Qubit density matrix (I + r.sigma)/2 for the given Bloch coordinates.

    The excited-state population is (1 + r sin(theta)) / 2, so theta > 0 means
    a more excited atom.  Basis order: excited, ground.
    """
    z = params.r * np.sin(params.theta)
    x = params.r * np.cos(params.theta) * np.cos(params.phi)
    y = params.r * np.cos(params.theta) * np.sin(params.phi)
    mat = 0.5 * np.array(
        [[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=np.complex128
    )
    return validate_density(mat, (2,))


def product_state(
    atom: DensityMatrix, field_state: FieldDistribution | DensityMatrix
) -> DensityMatrix:
    """Joint atom-field state atom (x) field with dims recorded for later tracing."""
    if isinstance(field_state, FieldDistribution):
        field_state = field_state.density_matrix()
    if atom.dim != 2:
        raise InvalidParameter(f"atom factor must be 2x2, got dim {atom.dim}")
    joint = kron(atom.mat, field_state.mat)
    return validate_density(joint, (2, field_state.dim))


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduce a joint state to one subsystem (``keep`` is "atom" or "field")."""
    d_a, d_f = rho.require_joint()
    blocks = rho.mat.reshape(d_a, d_f, d_a, d_f)
    if keep == "atom":
        reduced = np.einsum("ifjf->ij", blocks)
        dims: tuple[int, ...] = (d_a,)
    elif keep == "field":
        reduced = np.einsum("aiaj->ij", blocks)
        dims = (d_f,)
    else:
        raise InvalidParameter(f"keep must be 'atom' or 'field', got {keep!r}")
    return validate_density(reduced, dims, trace_tol=1e-13)
