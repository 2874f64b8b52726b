"""Entropy and purity measures plus entropy-correlation diagnostics.

All entropies are von Neumann entropies in nats (natural log, k_B = 1).
Time-series diagnostics quantify how the atomic and field partial entropies
move relative to each other: the exchange parameter is -1 when every increase
of one is matched by an equal decrease of the other and +1 when the two rise
and fall together.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import AllStepsSkipped, InvalidParameter
from .linalg import FloatArray
from .states import DensityMatrix, FieldDistribution, ladder, partial_trace

# Spectrum values below this are treated as exact zeros before taking logs;
# it sits well above the eigensolver noise floor.
EIGENVALUE_CLAMP = 1e-14

# Default guard for near-vanishing denominators in time-series ratios.
DEFAULT_EPS = 1e-9


def entropy_from_spectrum(w, clamp: float = EIGENVALUE_CLAMP) -> float:
    """-sum(w ln w) over a probability spectrum, with 0 ln 0 = 0.

    Accepts a stack of spectra; the reduction runs over the last axis.
    """
    w = np.asarray(w, dtype=np.float64)
    safe = np.where(w > clamp, w, 1.0)
    out = -(np.where(w > clamp, w, 0.0) * np.log(safe)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def von_neumann(rho: DensityMatrix) -> float:
    """von Neumann entropy -Tr(rho ln rho) in nats."""
    return float(entropy_from_spectrum(rho.eigenvalues))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in (0, 1]; equals 1 exactly for pure states."""
    return float(np.vdot(rho.mat, rho.mat).real)


def tsallis2(rho: DensityMatrix) -> float:
    """Order-2 Tsallis entropy 1 - Tr(rho^2)."""
    return 1.0 - purity(rho)


def conditional_entropy(rho_joint: DensityMatrix, which: str) -> float:
    """S(X|Y) = S_joint - S_Y; negative values certify entanglement.

    ``which`` selects the conditioned subsystem: "atom_given_field" or
    "field_given_atom".
    """
    s_joint = von_neumann(rho_joint)
    if which == "atom_given_field":
        return s_joint - von_neumann(partial_trace(rho_joint, "field"))
    if which == "field_given_atom":
        return s_joint - von_neumann(partial_trace(rho_joint, "atom"))
    raise InvalidParameter(f"which must name a conditional entropy, got {which!r}")


def mutual_entropy(rho_joint: DensityMatrix) -> float:
    """S(atom) + S(field) - S(joint); bounded by twice the smaller partial entropy."""
    s_a = von_neumann(partial_trace(rho_joint, "atom"))
    s_f = von_neumann(partial_trace(rho_joint, "field"))
    return s_a + s_f - von_neumann(rho_joint)


@dataclass(frozen=True)
class EntropySeries:
    """Partial and joint entropies plus purities sampled along a trajectory."""

    t: FloatArray
    s_atom: FloatArray
    s_field: FloatArray
    s_joint: FloatArray
    purity_atom: FloatArray
    purity_field: FloatArray

    def __post_init__(self):
        n = len(self.t)
        for name in ("s_atom", "s_field", "s_joint", "purity_atom", "purity_field"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise InvalidParameter(f"{name} has length {len(arr)}, expected {n}")
        for name in ("s_atom", "s_field", "s_joint"):
            if np.min(getattr(self, name)) < -1e-12:
                raise InvalidParameter(f"{name} has an entropy below -1e-12")
        for name in ("purity_atom", "purity_field"):
            arr = getattr(self, name)
            if np.min(arr) <= 0 or np.max(arr) > 1 + 1e-12:
                raise InvalidParameter(f"{name} leaves (0, 1]")

    @classmethod
    def from_trajectory(cls, data) -> "EntropySeries":
        """The entropy and purity columns of a trajectory (``TrajectoryData``)."""
        return cls(**{f.name: getattr(data, f.name) for f in fields(cls)})

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class ExchangeResult:
    """Time-averaged entropy-exchange parameter and the step bookkeeping."""

    p: float
    used_steps: int
    skipped_steps: int


@dataclass(frozen=True)
class MutualRatioResult:
    """Time-averaged mutual-entropy ratio and the sample bookkeeping."""

    r_bar: float
    used_samples: int
    skipped_samples: int


def exchange_parameter(series: EntropySeries, eps: float = DEFAULT_EPS) -> ExchangeResult:
    """Time-averaged ratio of the per-step partial-entropy changes, in [-1, 1].

    For each step the increments dS_a and dS_f are formed and the one of
    smaller absolute value is divided by the other, so every ratio lies in
    [-1, 1]: -1 means the field change mirrored the atomic change exactly
    (pure exchange) and +1 means the two moved identically.  The result is
    the arithmetic mean of these ratios; steps where both increments are
    below ``eps`` in magnitude carry no signal and are skipped.  Raises
    :class:`AllStepsSkipped` when no step survives the threshold.
    """
    if len(series) < 2:
        raise InvalidParameter("series needs at least two samples")
    if eps <= 0:
        raise InvalidParameter(f"eps={eps} must be positive")
    da = np.diff(series.s_atom)
    df = np.diff(series.s_field)
    keep = np.maximum(np.abs(da), np.abs(df)) >= eps
    used = int(keep.sum())
    skipped = int(keep.size - used)
    if used == 0:
        raise AllStepsSkipped(f"all {skipped} steps fell below eps={eps:.1e}")
    da, df = da[keep], df[keep]
    # On kept steps the larger-magnitude member is >= eps, so the selected
    # denominator is never zero.
    atom_smaller = np.abs(da) <= np.abs(df)
    ratios = np.where(
        atom_smaller,
        da / np.where(atom_smaller, df, 1.0),
        df / np.where(atom_smaller, 1.0, da),
    )
    return ExchangeResult(float(ratios.mean()), used, skipped)


def mutual_entropy_ratio(series: EntropySeries, eps: float = DEFAULT_EPS) -> MutualRatioResult:
    """Time average of S(atom:field) / min(S_atom, S_field) over a trajectory.

    The per-sample ratio lies in [0, 2]; values above 1 certify entanglement
    at that instant.  Samples whose smaller partial entropy is below ``eps``
    are skipped; raises :class:`AllStepsSkipped` if none remain.
    """
    if eps <= 0:
        raise InvalidParameter(f"eps={eps} must be positive")
    mutual = series.s_atom + series.s_field - series.s_joint
    smaller = np.minimum(series.s_atom, series.s_field)
    keep = smaller >= eps
    used = int(keep.sum())
    skipped = int(keep.size - used)
    if used == 0:
        raise AllStepsSkipped(f"all {skipped} samples have min partial entropy < {eps:.1e}")
    r_bar = float((mutual[keep] / smaller[keep]).mean())
    return MutualRatioResult(r_bar, used, skipped)


def purity_rate_exact(
    initial: str, field: FieldDistribution, t: float
) -> tuple[float, float]:
    """Exact rates d(Tr rho_a^2)/dt and d(Tr rho_f^2)/dt at time ``t``.

    Valid for an atom starting exactly in the ground or excited state coupled
    to a diagonal field, where the partial states stay diagonal and the rates
    reduce to finite trigonometric sums over the truncated distribution.
    """
    p = np.asarray(field.probs, dtype=float)
    alpha, beta = ladder(field.dim)
    t = float(t)
    if initial == "ground":
        sin2 = np.sin(beta * t) ** 2
        cos2 = np.cos(beta * t) ** 2
        ds = p * beta * np.sin(2 * beta * t)
        a_pop = (p * sin2).sum()
        b_pop = (p * cos2).sum()
        d_atom = 2.0 * a_pop * ds.sum() - 2.0 * b_pop * ds.sum()
        # f_n picks up the level above; the lump level has none.
        up = np.append(ds[1:], 0.0)
        f_diag = p * cos2 + np.append((p * sin2)[1:], 0.0)
        d_field = 2.0 * ((up - ds) * f_diag).sum()
        return float(d_atom), float(d_field)
    if initial == "excited":
        sin2 = np.sin(alpha * t) ** 2
        cos2 = np.cos(alpha * t) ** 2
        ds = p * alpha * np.sin(2 * alpha * t)
        a_pop = (p * cos2).sum()
        b_pop = (p * sin2).sum()
        d_atom = -2.0 * a_pop * ds.sum() + 2.0 * b_pop * ds.sum()
        down = np.concatenate(([0.0], ds[:-1]))
        f_diag = p * cos2 + np.concatenate(([0.0], (p * sin2)[:-1]))
        d_field = 2.0 * ((down - ds) * f_diag).sum()
        return float(d_atom), float(d_field)
    raise InvalidParameter(f"initial must be 'ground' or 'excited', got {initial!r}")


def purity_rate_approx(initial: str, n_bar: float, t: float) -> tuple[float, float]:
    """Leading-term purity rates for a weakly excited thermal field.

    Keeps only the largest product of level probabilities, which dominates
    when n_bar is small.  Ground start: the two rates are equal and opposite
    (entropy exchange); excited start: they are identical (co-fluctuation).
    """
    if n_bar < 0:
        raise InvalidParameter(f"n_bar={n_bar} must be >= 0")
    p0 = 1.0 / (n_bar + 1.0)
    p1 = n_bar / (n_bar + 1.0) ** 2
    t = float(t)
    if initial == "ground":
        rate = 2.0 * p0 * p1 * np.sin(2.0 * t)  # beta_1 = 1
        return -float(rate), float(rate)
    if initial == "excited":
        rate = -(p0 ** 2) * np.sin(4.0 * t)  # alpha_0 = 1
        return float(rate), float(rate)
    raise InvalidParameter(f"initial must be 'ground' or 'excited', got {initial!r}")
