"""Exception and warning types shared across the library, and the context
manager that reports a malformed input document as ConfigError.

Policy for a solver that stops short of its tolerance:

- A solver whose result is only valid once it has converged, and so cannot
  certify it, raises: NumericalFailure when a certificate check fails (the
  simplex), SolverStalled when an iteration cap is reached first (the
  Newton path of lambert_w_exp).
- A bound that stays certified however its solver stops (the fluid dual's
  value, the static bound's feasible point) returns normally and reports
  `converged` in BoundResult.extra.
"""

from contextlib import contextmanager


class UipError(Exception):
    """Base class for all library errors."""


class DomainError(UipError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CapExceeded(UipError):
    """A combinatorial size cap would be exceeded (option count, DP state space)."""


class UnknownScenario(UipError, ValueError):
    """Requested synthetic-data scenario does not exist."""


class PartitionMismatch(UipError, ValueError):
    """An option set is not a valid partition for the given instance or baseline."""


class MissingDp(UipError, ValueError):
    """A dynamic-programming solution for a different option set was supplied."""


class MissingFreightData(UipError, ValueError):
    """An item lacks the freight fields (coordinates, expiration) an operation needs."""


class ConfigError(UipError, ValueError):
    """A simulation or experiment configuration is invalid."""


class NumericalFailure(UipError):
    """A solver could not certify its solution to the required tolerance."""


class Infeasible(UipError):
    """An optimization problem has no feasible solution."""


class SolverStalled(UipError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class DimensionMismatch(UipError, ValueError):
    """Array arguments have incompatible shapes."""


class ValidityWarning(UserWarning):
    """A returned value is not certified as a bound (preconditions not met)."""


@contextmanager
def config_errors(what: str):
    """Re-raise the KeyError, TypeError and ValueError of parsing a document
    as ConfigError naming `what`; library errors pass through unchanged."""
    try:
        yield
    except UipError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
