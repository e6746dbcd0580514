"""Exception taxonomy shared by all analysis modules.

Every error raised by this package derives from PufStatError and carries a
short machine-readable ``category``. The command line tool maps categories to
exit codes; library users can catch the base class.
"""

import numbers


class PufStatError(Exception):
    """Base class for all errors raised by pufstat."""

    category = "error"


class StructuralError(PufStatError):
    """Input has the wrong shape: ragged rows, missing cells, bad header."""

    category = "structural"


class ParseError(PufStatError):
    """A token in an input file could not be parsed."""

    category = "parse"


class ValidationError(PufStatError):
    """Parsed values violate a domain constraint (e.g. non-positive MHz)."""

    category = "validation"


class ConfigurationError(PufStatError):
    """Arguments or options are inconsistent with the data."""

    category = "configuration"


class DegenerateDataError(PufStatError):
    """The data admits no answer: zero variance, constant series."""

    category = "degenerate-data"


class InsufficientSampleError(DegenerateDataError):
    """Too few observations for the requested statistic."""

    category = "insufficient-sample"


class UnavailableAnalysisError(PufStatError):
    """A required input artifact or metadata record is missing."""

    category = "unavailable-analysis"


class NumericError(PufStatError):
    """A numeric routine failed to produce a finite result."""

    category = "numeric"


def check_seed(seed):
    """``seed``, if it is a non-negative integer: the only seeds pufstat
    draws from. Anything else is a ``ConfigurationError``."""
    if isinstance(seed, numbers.Integral) and seed >= 0:
        return seed
    raise ConfigurationError(f"a seed is a non-negative integer, got {seed!r}")
