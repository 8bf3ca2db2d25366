"""Exception types raised across the package."""


class GaidsError(Exception):
    """Base class for all package errors; exit_code is the status a gaids command exits with."""

    exit_code = 2


class MalformedRecord(GaidsError):
    """A connection-record line does not have the expected 42-field shape."""

    exit_code = 3


class NonNumericFeature(GaidsError):
    """A retained feature field failed to parse as a finite real number."""

    exit_code = 3


class UnknownLabel(GaidsError):
    """An attack name is absent from the category mapping (strict mode)."""

    exit_code = 3


class EmptyDataset(GaidsError):
    """An operation that needs at least one record received none."""

    exit_code = 3


class EmptyModel(GaidsError):
    """A model without chromosomes cannot answer nearest/fitness queries."""

    exit_code = 4


class ModelFormatError(GaidsError):
    """A model file is structurally invalid."""

    exit_code = 4


class ModelVersionMismatch(ModelFormatError):
    """A model file carries an unknown format tag or version."""


class ConfigError(GaidsError):
    """Invalid command-line or config-file input."""
