"""Exception types shared across the package.

Every refusal derives from one of two bases, which decide how it ends: bad
input from :class:`InvalidParameter` (CLI exit 2), a computed fault from
:class:`ValidationError` (CLI exit 3, sweep cell ``error:<Class>``, selfcheck
``[FAIL]``).  :class:`AllStepsSkipped` is neither: a diagnostic without signal.
"""


class InvalidParameter(ValueError):
    """Base of every bad input: an argument, shape or size outside its domain."""


class DimensionMismatch(InvalidParameter):
    """Matrix operands have incompatible shapes."""


class MissingFactorization(InvalidParameter):
    """A joint-state operation received a density matrix without bipartite dims."""


class ValidationError(ValueError):
    """Base of every computed fault: a computed value fails its check, or the solver fails."""


class NotHermitian(ValidationError):
    """Hermiticity residual exceeds tolerance."""

    def __init__(self, residual: float, tol: float):
        self.residual, self.tol = residual, tol
        super().__init__(
            f"matrix is not Hermitian: max |M - M^dag| = {residual:.3e} > {tol:.1e}"
        )


class TraceNotOne(ValidationError):
    """Density-matrix trace differs from 1 beyond tolerance."""

    def __init__(self, trace: complex, tol: float):
        self.trace, self.tol = trace, tol
        super().__init__(f"trace is {trace!r}, not 1 within {tol:.1e}")


class NotPositive(ValidationError):
    """A density-matrix eigenvalue is negative beyond the solver noise floor."""

    def __init__(self, min_eigenvalue: float, floor: float):
        self.min_eigenvalue, self.floor = min_eigenvalue, floor
        super().__init__(
            f"minimum eigenvalue {min_eigenvalue:.3e} is below the PSD floor {floor:.1e}"
        )


class ConservationViolation(ValidationError):
    """A conserved quantity drifted along a trajectory beyond tolerance."""

    def __init__(self, quantity: str, drift: float, tol: float):
        self.quantity, self.drift, self.tol = quantity, drift, tol
        super().__init__(f"{quantity} drifted by {drift:.3e} > {tol:.1e}")


class RangeViolation(ValidationError):
    """An entropy or purity column leaves its range by more than the rounding slack."""

    def __init__(self, column: str, extreme: float, allowed: str):
        self.column, self.extreme = column, float(extreme)
        super().__init__(f"{column} reaches {extreme:.3e}, outside {allowed}")


class NoConvergence(ValidationError):
    """The eigensolver failed to converge."""


class AllStepsSkipped(RuntimeError):
    """Every step of a time series fell below the noise threshold."""


class InsufficientMemory(InvalidParameter):
    """A run's estimated peak memory exceeds the machine's memory."""

    def __init__(self, need: int, have: int):
        self.need, self.have = need, have
        super().__init__(f"estimated peak memory {need / 2**30:.2f} GiB exceeds the "
                         f"machine's {have / 2**30:.2f} GiB; lower n_bar, n_f or workers")
