"""Exception types shared across the package."""


class SnorderError(Exception):
    """Base class for all errors raised by this package."""


class BackendMismatch(SnorderError):
    """Operands carry different numeric backends (exact vs float)."""


class DivisionByZero(SnorderError, ZeroDivisionError):
    pass


class OrderPreconditionFailed(SnorderError):
    """An order-arithmetic predicate was called outside its precondition."""


class DimensionMismatch(SnorderError):
    pass


class NotMajorized(SnorderError):
    """A decomposition needs strict majorization.  ``verdict`` is the
    Majorization verdict of a pair refused at that test, None when the
    refusal came later."""

    def __init__(self, message: str, verdict=None):
        self.verdict = verdict
        super().__init__(message)


class NotDominated(SnorderError):
    pass


class EmptySpec(SnorderError):
    pass


class SpectrumMismatch(SnorderError):
    """Supplied eigenvalue list does not account for the whole matrix."""


class RankAmbiguous(SnorderError):
    """Float-backend rank decision has no clear singular-value gap."""


class OutsideAnalyticityRadius(SnorderError):
    pass


class KappaNotFound(SnorderError):
    """No nonzero derivative up to the requested order."""


class GradientUnavailable(SnorderError):
    pass


class NotWeaklyMajorized(SnorderError):
    pass


class NotSNOrdered(SnorderError):
    pass


class IncomparableNilpotent(SnorderError):
    """Neither block-structure partition dominates the other."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"incomparable block structures at eigenvalue index {index}")


class SpectrumUnavailable(SnorderError):
    """No closed-form eigenvalue extraction for this matrix shape."""
