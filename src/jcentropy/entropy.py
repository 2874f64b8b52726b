"""Spectral entropy, entropy-correlation diagnostics and partial-purity rates.

All entropies are von Neumann entropies in nats (natural log, k_B = 1).
Time-series diagnostics quantify how the atomic and field partial entropies
move relative to each other: the exchange parameter is -1 when every increase
of one is matched by an equal decrease of the other and +1 when the two rise
and fall together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllStepsSkipped, InvalidParameter, RangeViolation
from .states import (FieldDistribution, FloatArray, _ladder_populations, ladder, require_finite,
                     require_n_bar, require_positive)

# Spectrum values below this are treated as exact zeros before taking logs;
# it sits well above the eigensolver noise floor.
EIGENVALUE_CLAMP = 1e-14
# Rounding a computed entropy may show below 0, and a computed purity above 1.
RANGE_SLACK = 1e-12

# Default guard for near-vanishing denominators in time-series ratios.
DEFAULT_EPS = 1e-9


def entropy_from_spectrum(w) -> float:
    """-sum(w ln w) over a probability spectrum, with 0 ln 0 = 0.

    Accepts a stack of spectra; the reduction runs over the last axis.
    """
    w = np.asarray(w, dtype=np.float64)
    safe = np.where(w > EIGENVALUE_CLAMP, w, 1.0)
    out = -(np.where(w > EIGENVALUE_CLAMP, w, 0.0) * np.log(safe)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EntropySeries:
    """Partial and joint entropies plus purities sampled along a trajectory.

    Construction checks the lengths of the columns (:class:`InvalidParameter`)
    and their ranges within ``RANGE_SLACK`` (:class:`RangeViolation`, NaN too).
    ``dynamics.TrajectoryData`` extends it with the other per-sample columns.
    """

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
            low = np.min(getattr(self, name))
            if not low >= -RANGE_SLACK:  # NaN too
                raise RangeViolation(name, low, f"[{-RANGE_SLACK:.1e}, inf)")
        for name in ("purity_atom", "purity_field"):
            arr = getattr(self, name)
            low, high = np.min(arr), np.max(arr)
            if not 0 < low <= high <= 1 + RANGE_SLACK:
                raise RangeViolation(name, high if low > 0 else low,
                                     f"(0, 1 + {RANGE_SLACK:.1e}]")

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
    require_positive("eps", eps)
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
    require_positive("eps", eps)
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
    to a diagonal field, where the partial states stay diagonal, so each rate
    is 2 sum(population x its time derivative).  Both come from the closed-form
    populations of ``dynamics.diagonal_evolve``, the derivatives by taking that
    linear form on the time derivatives of its four ladder terms.
    """
    if initial not in ("ground", "excited"):
        raise InvalidParameter(f"initial must be 'ground' or 'excited', got {initial!r}")
    require_finite("t", t)
    p_e = 1.0 if initial == "excited" else 0.0
    alpha, beta = ladder(field.dim)
    t = float(t)
    (excited, ground), f_pops = _ladder_populations(
        p_e, field.probs, np.cos(alpha * t) ** 2, np.sin(alpha * t) ** 2,
        np.cos(beta * t) ** 2, np.sin(beta * t) ** 2)
    rate_a, rate_b = alpha * np.sin(2 * alpha * t), beta * np.sin(2 * beta * t)
    (d_excited, d_ground), d_f = _ladder_populations(
        p_e, field.probs, -rate_a, rate_a, -rate_b, rate_b)
    d_atom = 2.0 * (excited * d_excited + ground * d_ground)
    return float(d_atom), float(2.0 * (f_pops * d_f).sum())


def purity_rate_approx(initial: str, n_bar: float, t: float) -> tuple[float, float]:
    """Leading-term purity rates for a weakly excited thermal field.

    Keeps only the largest product of level probabilities, which dominates
    when n_bar is small.  Ground start: the two rates are equal and opposite
    (entropy exchange); excited start: they are identical (co-fluctuation).
    """
    require_n_bar(n_bar)
    require_finite("t", t)
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
