"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class NotFittedError(ReproError):
    """An estimator was used before ``fit`` was called."""


class BudgetExhaustedError(ReproError):
    """An AutoML search ran out of its time budget mid-evaluation."""


class BudgetBelowMinimumError(ValueError):
    """A time budget below the system's minimum: the grid cell does not
    exist (paper Figure 3), so campaigns skip it instead of failing it."""


class ConfigurationError(ReproError):
    """An invalid hyperparameter configuration or search-space definition."""


class ConstraintViolationError(ReproError):
    """A candidate pipeline violated a user-provided application constraint."""


class DatasetError(ReproError):
    """A dataset is malformed or unknown to the registry."""


class TrialPruned(ReproError):
    """A tuning trial was pruned early (median pruning, successive halving)."""


class InjectedFault(ReproError):
    """A failure deliberately raised by the fault-injection subsystem.

    Carries no special handling anywhere outside tests and chaos
    accounting: the whole point is that injected faults travel the same
    retry/quarantine paths as real ones.
    """


class RaplUnavailableError(ReproError):
    """The RAPL energy counter could not be read (mid-campaign loss)."""
