"""Exception types raised across the package."""


class GaidsError(Exception):
    """Base class for all package errors."""


class MalformedRecord(GaidsError):
    """A connection-record line does not have the expected 42-field shape."""


class NonNumericFeature(GaidsError):
    """A retained feature field failed to parse as a finite real number."""


class UnknownLabel(GaidsError):
    """An attack name is absent from the category mapping (strict mode)."""


class EmptyDataset(GaidsError):
    """An operation that needs at least one record received none."""


class EmptyModel(GaidsError):
    """A model without chromosomes cannot answer nearest/fitness queries."""


class ModelFormatError(GaidsError):
    """A model file is structurally invalid."""


class ModelVersionMismatch(ModelFormatError):
    """A model file carries an unknown format tag or version."""


class NoIntrusions(GaidsError):
    """Detection rate is undefined: the evaluated data holds no intrusions."""


class NoNormals(GaidsError):
    """False-positive rate is undefined: the evaluated data holds no normals."""


class ConfigError(GaidsError):
    """Invalid command-line or config-file input."""
