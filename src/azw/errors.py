"""Exception types shared across the package."""


class AzwError(Exception):
    """Base class for all errors raised by azw."""


class GraphError(AzwError, ValueError):
    """Invalid graph construction or graph input."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class IndexOutOfRangeError(GraphError):
    pass


class InvalidParameterError(GraphError):
    pass


class NonSquareError(AzwError, ValueError):
    """Operation requires a square matrix."""


class PoleError(AzwError, ArithmeticError):
    """Evaluation was requested at (or too close to) a pole."""

    def __init__(self, point, message=None):
        self.point = point
        super().__init__(message or f"pole at {point!r}")


class NonPositiveShiftError(AzwError, ValueError):
    """Shift argument lies on the nonpositive integer lattice."""


class UnsupportedContinuationError(AzwError, ValueError):
    """Parameters outside the analytically continued domain."""


class PrecisionError(AzwError, RuntimeError):
    """Requested accuracy could not be certified within budget."""


class NotCyclotomicError(AzwError, ValueError):
    """Rational function does not lie in the cyclotomic family."""


class IdentityCheckError(AzwError, RuntimeError):
    """A numeric identity that should hold at sample points failed."""


class CertificateError(AzwError, RuntimeError):
    """Exact automorphy identity failed; indicates an implementation bug."""


class SpectralMismatchError(AzwError, RuntimeError):
    """Eigenvalue multisets from two routes do not match."""


class DomainError(AzwError, ValueError):
    """Method preconditions for absolute zeta evaluation violated."""


class OddPowerError(DomainError):
    """Monomial prefactor x^(l/2) with odd l needs a branch choice; unsupported."""


class SingularPointError(AzwError, ValueError):
    """Functional equation evaluated at a singular lattice point."""


class QuadratureBudgetError(AzwError, RuntimeError):
    """A quadrature whose levels never agreed, or whose error estimate is too large."""
