"""Exception types shared across the package."""


class FbsdeLabError(Exception):
    """Base class for all package errors."""


class UnknownPresetError(FbsdeLabError, KeyError):
    """Requested preset name is not registered."""


class EvaluationError(FbsdeLabError):
    """A user-supplied coefficient returned NaN/Inf; carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PreconditionError(FbsdeLabError):
    """An operation was called outside its stated preconditions."""


class ConfigError(FbsdeLabError):
    """Invalid numerical configuration (grid too coarse, bad parameters)."""


class SolverError(FbsdeLabError):
    """Inner iterations of a PDE step failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ResourceError(FbsdeLabError):
    """A job's estimated array bytes exceed the machine's physical memory.

    Raised before the arrays are allocated; ``witness`` is the estimate in bytes.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DivergenceError(FbsdeLabError):
    """Numerical blow-up detected during a backward sweep."""


class BasisError(FbsdeLabError):
    """Regression design matrix is rank deficient or otherwise unusable."""


class UndefinedRateError(FbsdeLabError):
    """No growth rate on the window: the function vanishes there or outgrows every trial power."""


class ParseError(FbsdeLabError):
    """Configuration or expression text failed to parse."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
