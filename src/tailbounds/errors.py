"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError,
InvalidArgumentError and IncompleteProfileError -> 2,
HypothesisViolationError -> 3, SizeLimitError -> 4 (a size cap, or a
budget such as the simplex's MAX_PIVOTS).
"""


class InvalidArgumentError(ValueError):
    """An argument is outside the documented domain (odd moment order, t <= 0, ...)."""


class IncompleteProfileError(ValueError):
    """A moment profile is missing an entry required by the requested order."""

    def __init__(self, i, l):
        self.i = i
        self.l = l
        super().__init__(f"profile is missing a bound for variable i={i}, order l={l}")


class SizeLimitError(RuntimeError):
    """An exact computation was requested beyond its configured size cap or budget."""


class ConfigError(ValueError):
    """An experiment configuration failed schema validation."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class HypothesisViolationError(RuntimeError):
    """Measured behaviour violates the hypotheses required to emit a bound."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)
