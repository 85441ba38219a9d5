"""Exception hierarchy.

Exceptions are grouped by the CLI exit code they map onto:
1 = configuration error, 2 = data error, 3 = numeric/convergence error.
Plain ValueError is still used for programming errors (bad arguments to
library functions) that a config file can never trigger.

The config dataclasses check each field with ``as_*`` or ``one_of``,
which raise a ConfigError naming ``key`` or return the value in its one
accepted type.
"""

import math
from numbers import Integral, Real


class GeokatzError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(GeokatzError):
    """Invalid or inconsistent run configuration."""

    exit_code = 1


def as_real(value, key):
    """``value`` as a finite float; bools, text and NaN or infinity are
    refused."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"'{key}' must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"'{key}' must be finite, got {value!r}")
    return number


def as_int(value, key):
    """``value`` as an int; bools, floats and text are refused."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def as_bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be true or false, got {value!r}")
    return value


def as_interval(value, key, single=True):
    """A (first, last) pair of integer years from a two-item list or
    tuple, or, when ``single``, from one year. The order is not checked:
    each caller names a reversed interval in its own terms."""
    if single and not isinstance(value, (list, tuple)):
        value = (value, value)
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(
            f"'{key}' must be a [first, last] pair of years, got {value!r}")
    return (as_int(value[0], key), as_int(value[1], key))


def one_of(value, choices, key):
    if value not in choices:
        raise ConfigError(
            f"'{key}' must be one of {choices}, got {value!r}")
    return value


class DataError(GeokatzError):
    """Problem with the input data or derived structures."""

    exit_code = 2


class SchemaError(DataError):
    """Input file is missing a required column."""


class RowError(DataError):
    """A data row failed validation (raised only in abort mode)."""


class EmptyNetworkError(DataError):
    """No usable records to build a network from."""


class EmptySplitError(DataError):
    """A temporal split interval captured zero edges."""


class UniverseMismatchError(DataError):
    """Two score tables do not share a candidate-pair universe."""


class DegenerateLabelsError(DataError):
    """Labels contain only one class where both are required."""


class NumericError(GeokatzError):
    """Numerical failure (divergence, ill-posed solve)."""

    exit_code = 3


class BetaDomainError(NumericError):
    """Damping factor outside (0, 1/spectral_radius): series diverges."""


class DegenerateScoreTableWarning(UserWarning):
    """All scores in a table are identical; normalization maps them to 0."""
