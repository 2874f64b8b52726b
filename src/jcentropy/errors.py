"""Exception types shared across the package."""


class InvalidParameter(ValueError):
    """A scalar argument is outside its physical or numerical domain."""


class DimensionMismatch(ValueError):
    """Matrix operands have incompatible shapes."""


class MissingFactorization(ValueError):
    """A joint-state operation received a density matrix without bipartite dims."""


class ValidationError(ValueError):
    """Base for numerical density-matrix validation failures."""


class NotHermitian(ValidationError):
    """Hermiticity residual exceeds tolerance."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"matrix is not Hermitian: max |M - M^dag| = {residual:.3e} > {tol:.1e}"
        )


class TraceNotOne(ValidationError):
    """Density-matrix trace differs from 1 beyond tolerance."""

    def __init__(self, trace: complex, tol: float):
        self.trace = trace
        self.tol = tol
        super().__init__(f"trace is {trace!r}, not 1 within {tol:.1e}")


class NotPositive(ValidationError):
    """A density-matrix eigenvalue is negative beyond the solver noise floor."""

    def __init__(self, min_eigenvalue: float, floor: float):
        self.min_eigenvalue = min_eigenvalue
        self.floor = floor
        super().__init__(
            f"minimum eigenvalue {min_eigenvalue:.3e} is below the PSD floor {floor:.1e}"
        )


class ConservationViolation(ValidationError):
    """A conserved quantity drifted along a trajectory beyond tolerance."""

    def __init__(self, quantity: str, drift: float, tol: float):
        self.quantity = quantity
        self.drift = drift
        self.tol = tol
        super().__init__(f"{quantity} drifted by {drift:.3e} > {tol:.1e}")


class NoConvergence(RuntimeError):
    """The eigensolver failed to converge."""


class AllStepsSkipped(RuntimeError):
    """Every step of a time series fell below the noise threshold."""
