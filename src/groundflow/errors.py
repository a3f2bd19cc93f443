"""Exception types shared across the package."""


class GroundflowError(Exception):
    """Base class for all package-specific failures.

    ``numbers`` maps the name of each number the failure carries to its
    value (None when not known); each is also an attribute of that name.
    The CLI copies the known ones into its failure summary.
    """

    def __init__(self, message, **numbers):
        super().__init__(message)
        self.numbers = numbers
        for name, value in numbers.items():
            setattr(self, name, value)


class ConvergenceError(GroundflowError):
    """An iterative solve did not converge, left float range, or hit a singular factor.

    Carries the last residual / increment so callers can report how far
    the iteration got.
    """

    def __init__(self, message, residual=None):
        super().__init__(message, residual=residual)


class AdmissibilityError(GroundflowError):
    """The discriminant condition for the comparison profiles fails.

    ``margin`` is the signed quantity (psi1_minus)^2 - 4*lambda0*psi2_plus;
    admissibility requires it to be strictly positive together with
    lambda0 > 0.
    """

    def __init__(self, message, margin):
        super().__init__(f"{message} (margin={margin!r})", margin=margin)


class PositivityLossError(GroundflowError):
    """A time step produced a nonpositive field even after dt halving."""

    def __init__(self, message, dt=None, min_value=None):
        super().__init__(message, dt=dt, min_value=min_value)


class BlowdownError(GroundflowError):
    """A scalar trajectory started at or below the inner root and escapes
    toward zero instead of converging to the outer root."""


class BasinError(GroundflowError):
    """An evolving field left the attraction basin (ratio dropped to the
    critical level) mid-flight."""

    def __init__(self, message, time=None, min_ratio=None):
        super().__init__(message, time=time, min_ratio=min_ratio)


class PhaseSpaceExitError(GroundflowError):
    """A planar orbit left the half-plane u > 0, or its force left float range."""

    def __init__(self, message, exit_time):
        super().__init__(f"{message} (exit_time={exit_time!r})", exit_time=exit_time)
