"""Shared exception and warning types."""


class VarcertError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(VarcertError):
    pass


class ExprSyntaxError(VarcertError):
    """Raised on malformed expression text, with the offending position."""

    def __init__(self, position, message):
        self.position = position
        self.message = message
        super().__init__(f"syntax error at position {position}: {message}")


class UnknownVariableError(VarcertError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown variable '{name}'")


class KinkWarning(UserWarning):
    """Derivative requested at an abs/max/min kink; first-branch value used."""


class NotMemberError(VarcertError):
    pass


class EmptySetError(VarcertError):
    pass


class NonConvergenceError(VarcertError):
    def __init__(self, iterations, message="iteration limit reached"):
        self.iterations = iterations
        super().__init__(f"{message} after {iterations} iterations")


class NotInDomainError(VarcertError):
    pass


class NonconvexUnsupportedError(VarcertError):
    """Exact subdifferential unavailable; use membership testing via the subderivative."""


class InconclusiveError(VarcertError):
    def __init__(self, value, spread, tol):
        self.value = value
        self.spread = spread
        self.tol = tol
        super().__init__(
            f"sampled quotient did not settle: spread {spread:.3e} > {tol:.3e} (value {value})"
        )


class NumericalBreakdownError(VarcertError):
    """A tiny pivot, or a non-finite input, leaves no meaningful result."""


class InfeasiblePointError(VarcertError):
    pass


class NotUnitError(VarcertError):
    pass


class DimensionTooLargeError(VarcertError):
    pass
