"""Semantic exception types shared across the package."""


class ParameterError(ValueError):
    """A user-supplied parameter is out of range or inconsistent."""


class DivergentMomentError(ParameterError):
    """The requested absolute moment does not exist for the distribution."""


class NumericalError(RuntimeError):
    """A numerical kernel (SVD, eigensolver) failed to converge."""


class IdentityFailureError(RuntimeError):
    """No sign convention balances the diagonal resolvent identity.

    Indicates an implementation bug upstream: the identity is exact in
    exact arithmetic, so machine-precision residuals must single out one
    convention.
    """


class DegenerateConditioningError(RuntimeError):
    """Every Monte Carlo replication was rejected by the conditioning event."""


class ExactEnumerationError(ParameterError):
    """Exact enumeration requested for a configuration it cannot handle."""
