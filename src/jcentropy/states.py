"""Atomic, field, and joint density-matrix construction.

The cavity field lives in a truncated Fock space: levels ``0..n_f`` carry a
Planck (thermal) distribution and one extra level at index ``n_f + 1`` holds
the entire truncated tail, so every state is exactly unit trace regardless of
where the basis is cut.  The atom is a qubit parameterized on the Bloch ball;
the joint space is atom (x) field with the atom index major, excited sector
first.  Matrices are dense complex128 of dimension up to a few hundred; the
finiteness guard, Hermiticity residual and eigensolvers below raise the
package's typed errors.  Every spectrum goes through ``eigvalsh`` (dense) or
``banded_eigvalsh`` (real symmetric band stacks).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    MissingFactorization,
    NoConvergence,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)

ComplexMatrix = npt.NDArray[np.complex128]
FloatArray = npt.NDArray[np.float64]

# Max elementwise |M - M^dag| accepted for a density matrix.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# Max spread of <N>, the conserved excitation number, along one trajectory.
EXCITATION_DRIFT_TOL = 1e-12
# Eigensolver noise floor at these dimensions; eigenvalues above it count as >= 0.
PSD_FLOOR = -1e-10
# Largest |Im z| / |z| taken as rounding when one complex multiply turns z real: about
# 2 eps from rounding the product and its inputs, doubled; subnormal z lose more.
REAL_GAUGE_ROUNDING = 4 * np.finfo(float).eps
# Change of the field entropy per extra Fock level below which auto_truncate stops.
TRUNCATION_TOL = 1e-14
# dsbev's argument types: pointers to jobz, uplo, &n, &kd, ab, &ldab, w, z, &ldz, work and
# &info (every integer an int64, ILP64), then gfortran's hidden lengths of jobz and uplo.
_DSBEV_ARGTYPES = [ctypes.c_void_p] * 11 + [ctypes.c_size_t] * 2


def as_complex_matrix(a) -> ComplexMatrix:
    """Coerce to a square complex128 array, rejecting non-square or non-finite input."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise InvalidParameter("matrix contains NaN or Inf entries")
    return m


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


@functools.cache
def _dsbev():
    """LAPACK's ``dsbev`` from the LAPACK that numpy's own ``eigvalsh`` calls, or None.

    Looked up, on first use, in the ILP64 OpenBLAS that numpy's wheels bundle,
    then in a plain ILP64 build, so importing the package does not load it.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        routine = next(getattr(lib, symbol) for symbol in ("scipy_dsbev_64_", "dsbev_64_")
                       if hasattr(lib, symbol))
    except (OSError, AttributeError, ImportError, StopIteration):
        return None
    routine.argtypes = _DSBEV_ARGTYPES
    routine.restype = None
    return routine


def lapack_solver() -> str:
    """"dsbev", or "eigvalsh" where numpy's LAPACK has no ``dsbev``: what takes the band
    spectra of a trajectory."""
    return "eigvalsh" if _dsbev() is None else "dsbev"


def banded_eigvalsh(band) -> FloatArray:
    """Ascending eigenvalues of a stack of real symmetric band matrices in lower band storage.

    ``band`` has shape ``(n, D, kd + 1)`` with ``band[s, j, i - j] = A_s[i, j]``
    for ``j <= i <= j + kd``, LAPACK's layout; entries past the last row are
    not read.  LAPACK's ``dsbev`` reduces each matrix to tridiagonal form with
    ``dsbtrd`` in O(D^2 kd) and then calls ``dsterf``.  At kd = 1 ``dsbtrd``
    only copies the band, and numpy's ``eigvalsh`` (``dsyevd``: ``dsytrd``,
    which leaves a tridiagonal matrix unchanged, then ``dsterf``) gives
    bit-identical eigenvalues; both rescale only a matrix whose largest entry
    lies outside about 1e-146..1e146.  Without ``dsbev`` in numpy's LAPACK, each
    band fills the lower triangle, all that ``eigvalsh`` reads, of a dense matrix
    that it solves.  Raises :class:`NoConvergence` if the solver fails.
    """
    band = np.array(band, dtype=np.float64, order="C")  # a copy, which dsbev overwrites
    if band.ndim != 3 or band.shape[2] < 1:
        raise DimensionMismatch(f"expected an (n, D, kd + 1) band stack, got shape {band.shape}")
    count, dim, width = band.shape
    sbev = _dsbev()
    if sbev is None:
        dense = np.zeros((count, dim, dim))
        for offset in range(min(width, dim)):
            i = np.arange(dim - offset)
            dense[:, i + offset, i] = band[:, : dim - offset, offset]
        return eigvalsh(dense)
    w = np.empty((count, dim))
    work = np.empty(max(1, 3 * dim - 2))
    ints = np.array([dim, width - 1, width, 1, 0], np.int64)  # n, kd, ldab, ldz, info
    n_at, kd_at, ldab_at, ldz_at, info_at = (ints.ctypes.data + 8 * i for i in range(5))
    chars = np.frombuffer(b"NL", np.uint8)  # jobz: eigenvalues only; uplo: lower band
    jobz_at, uplo_at = chars.ctypes.data, chars.ctypes.data + 1
    band_at, w_at, work_at = band.ctypes.data, w.ctypes.data, work.ctypes.data
    band_step, w_step = band.strides[0], w.strides[0]
    for s in range(count):
        # z is not referenced without eigenvectors, so the work array stands in for it
        sbev(jobz_at, uplo_at, n_at, kd_at, band_at + s * band_step, ldab_at,
             w_at + s * w_step, work_at, ldz_at, work_at, info_at, 1, 1)
        if ints[4]:
            raise NoConvergence(f"dsbev: {ints[4]} off-diagonal entries did not converge")
    return w


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


def _ladder_populations(p_e: float, probs, cos2_a, sin2_a, cos2_b, sin2_b):
    """((excited, ground), per-level field populations) of a diagonal atom, excited
    weight ``p_e``, on the diagonal field ``probs``: linear in the four ladder terms
    cos^2 and sin^2 of alpha t and of beta t, so their time derivatives give the
    populations' rates.  |e,n> keeps cos^2(alpha_n t) and hands sin^2(alpha_n t) to
    |g,n+1>; |g,n> keeps cos^2(beta_n t) and hands sin^2(beta_n t) to |e,n-1>.
    """
    p = np.asarray(probs, dtype=float)
    p_g = 1.0 - p_e
    excited = p_e * (p * cos2_a).sum() + p_g * (p * sin2_b).sum()
    ground = p_e * (p * sin2_a).sum() + p_g * (p * cos2_b).sum()
    up = np.append((p * sin2_b)[1:], 0.0)  # from level n+1
    down = np.concatenate(([0.0], (p * sin2_a)[:-1]))  # from level n-1
    return (excited, ground), p_e * (p * cos2_a + down) + p_g * (p * cos2_b + up)


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


def validate_density(mat, dims: tuple[int, ...]) -> DensityMatrix:
    """Check Hermiticity, unit trace, and positivity; return the validated state.

    Raises :class:`NotHermitian`, :class:`TraceNotOne`, or :class:`NotPositive`
    with the measured residual.
    """
    m = as_complex_matrix(mat)
    if int(np.prod(dims)) != m.shape[0]:
        raise MissingFactorization(f"dims {dims} do not multiply to dimension {m.shape[0]}")
    residual = hermiticity_residual(m)
    if residual > HERMITICITY_TOL:
        raise NotHermitian(residual, HERMITICITY_TOL)
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(tr, TRACE_TOL)
    w = eigvalsh(m)
    if w[0] < PSD_FLOOR:
        raise NotPositive(float(w[0]), PSD_FLOOR)
    return DensityMatrix(m, tuple(int(d) for d in dims), w)


def require_n_bar(n_bar: float) -> None:
    """Raise :class:`InvalidParameter` unless the mean photon number is finite and >= 0."""
    if not 0.0 <= n_bar < math.inf:  # NaN too
        raise InvalidParameter(f"n_bar={n_bar} must be finite and >= 0")


def require_positive(name: str, value: float) -> None:
    """Raise :class:`InvalidParameter` naming ``name`` unless ``value`` is > 0 (NaN is not)."""
    if not value > 0:
        raise InvalidParameter(f"{name}={value} must be positive")


def require_finite(name: str, values) -> None:
    """Raise :class:`InvalidParameter` naming ``name`` unless ``values``, one number or an
    array (a time or a time grid), are all finite."""
    if not np.isfinite(values).all():
        raise InvalidParameter(f"{name} must be finite")


def _planck_prefix(n_bar: float, length: int) -> FloatArray:
    """Planck weights of Fock levels 0..length-1, each the previous one times the ratio."""
    ratio = n_bar / (n_bar + 1.0)
    return np.multiply.accumulate(np.r_[1.0 / (n_bar + 1.0), np.full(length - 1, ratio)])


def _lumped(prefix: FloatArray, n_f: int) -> FloatArray:
    """Levels 0..n_f of the prefix plus the lump holding the residual mass."""
    probs = np.empty(n_f + 2)
    probs[: n_f + 1] = prefix[: n_f + 1]
    probs[n_f + 1] = max(0.0, 1.0 - probs[: n_f + 1].sum())
    return probs


def thermal_field(n_bar: float, n_f: int) -> FieldDistribution:
    """Planck distribution for one cavity mode, truncated at Fock level ``n_f``.

    P_n = n_bar^n / (n_bar + 1)^(n+1) for n <= n_f; the residual mass goes to
    the lump level, so the probabilities sum to one exactly.  Refuses an ``n_bar`` outside
    its domain and an ``n_f`` that is negative or not an integer.
    """
    require_n_bar(n_bar)
    if n_f < 0:
        raise InvalidParameter(f"n_f={n_f} must be >= 0")
    if not float(n_f).is_integer():  # NaN and inf too
        raise InvalidParameter(f"n_f={n_f} must be an integer")
    n_f = int(n_f)
    return FieldDistribution(float(n_bar), n_f, _lumped(_planck_prefix(n_bar, n_f + 1), n_f))


def auto_truncate(n_bar: float) -> int:
    """Smallest ``n_f`` whose field entropy is converged to within ``TRUNCATION_TOL``.

    Scans upward until adding one more retained Fock level changes the
    distribution's von Neumann entropy by less than that.  The Planck weights
    are built once, doubling their length when the scan needs more.
    """
    require_n_bar(n_bar)
    from .entropy import entropy_from_spectrum  # deferred: entropy imports this module

    prefix = _planck_prefix(n_bar, 64)
    n_f = 1
    s_prev = entropy_from_spectrum(_lumped(prefix, n_f))
    while True:
        if n_f + 2 >= len(prefix):
            prefix = _planck_prefix(n_bar, 2 * len(prefix))
        s_next = entropy_from_spectrum(_lumped(prefix, n_f + 1))
        if abs(s_next - s_prev) < TRUNCATION_TOL:
            return n_f
        n_f += 1
        s_prev = s_next


def truncation_floor(n_bar: float) -> int:
    """A lower bound on ``auto_truncate(n_bar)`` in closed form, for a pre-flight.

    With r = n_bar / (n_bar + 1), moving the cut from n_f to n_f + 1 changes
    the entropy by exactly r^(n_f+1) H(r), H the binary entropy.  At
    ``TRUNCATION_TOL`` the scan's float sums deviate from that by up to about
    1.2 TRUNCATION_TOL (measured over n_bar in [1e-4, 1000]), so the bound is
    the last n_f whose exact change exceeds 4 TRUNCATION_TOL, which the scan
    cannot pass over.  The margin holds only at that tolerance, so it is fixed.
    """
    require_n_bar(n_bar)
    r = n_bar / (n_bar + 1.0)
    if r == 0.0 or r == 1.0:  # vacuum, or n_bar past 2^53, where r rounds to 1
        return 1
    h = -r * math.log(r) - (1.0 - r) * math.log1p(-r)
    return max(1, math.floor(math.log(4.0 * TRUNCATION_TOL / h) / math.log(r)))


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
        raise InvalidParameter(f"atom factor has dimension {atom.dim}; the model needs a qubit (2)")
    joint = np.kron(atom.mat, field_state.mat)
    return validate_density(joint, (2, field_state.dim))

