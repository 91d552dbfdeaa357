"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Vector or matrix arguments have incompatible shapes."""


class ConfigError(ValueError):
    """A run or experiment configuration is inconsistent."""


class CapacityError(RuntimeError):
    """A sizing computation exceeded its search or representation limit."""


class BoundInfeasibleError(ValueError):
    """A theoretical bound was requested outside its validity region."""


class AccountingError(RuntimeError):
    """A run's oracle counters are out of step with its iteration count."""


class DivergenceError(RuntimeError):
    """An iterate became non-finite or the dual norm blew up.

    Carries the iteration index and a snapshot of the offending state so the
    caller can emit a partial record.
    """

    def __init__(self, message, iteration=None, state=None):
        super().__init__(message)
        self.iteration = iteration
        self.state = state
