"""Exception types shared across the package.

Everything raised deliberately by odeform derives from OdeformError so
callers (and the CLI) can distinguish our failures from programming bugs.
"""

from __future__ import annotations


class OdeformError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(OdeformError):
    """Malformed expression text.

    ``offset`` is the byte offset (UTF-8) of the offending token.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.message = message
        self.offset = offset


class EvalError(OdeformError):
    """Evaluation failed at a specific point ``x``."""

    def __init__(self, message: str, x: float):
        super().__init__(f"{message} (at x={x!r})")
        self.message = message
        self.x = x


class EvalDomainError(EvalError):
    """log of a non-positive value, sqrt of a negative, division by zero,
    or a power with no real value."""


class EvalOverflowError(EvalError):
    """A finite input produced a value outside double range."""


class ConvergenceError(OdeformError):
    """Adaptive quadrature did not meet tolerance within its depth cap
    (50 bisections) or its budget of parts.

    Carries the last estimate so callers can still inspect it.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float,
                 interval: tuple[float, float]):
        super().__init__(
            f"{message} (interval [{interval[0]!r}, {interval[1]!r}], "
            f"estimate {estimate!r}, error estimate {error_estimate!r})")
        self.estimate = estimate
        self.error_estimate = error_estimate
        self.interval = interval


class ParameterError(OdeformError):
    """A solver or config argument is outside its admissible set."""


class OutsideValidityError(OdeformError):
    """A solution was queried beyond its validity interval."""

    def __init__(self, x: float, validity: tuple[float, float]):
        super().__init__(
            f"x={x!r} lies outside the validity interval "
            f"({validity[0]!r}, {validity[1]!r})")
        self.x = x
        self.validity = validity


class NoOverlapError(OdeformError):
    """The requested range and the validity interval do not intersect."""


class InconclusiveError(OdeformError):
    """A verification check excluded too many points to conclude anything,
    or the oracle used up its step budget."""


class StageError(OdeformError):
    """A verification pipeline stage failed; names the stage, keeps the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.__cause__ = cause
