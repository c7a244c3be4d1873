"""Exception types shared by every module in the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class PrecisionError(ArithmeticError):
    """The requested accuracy cannot be certified.

    Carries the number of digits that *can* be certified, when known.
    """

    def __init__(self, message, achieved_digits=None):
        super().__init__(message)
        self.achieved_digits = achieved_digits


class ConsistencyError(RuntimeError):
    """An internal cross-check that should hold mathematically has failed."""
