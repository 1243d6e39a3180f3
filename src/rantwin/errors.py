"""Exception taxonomy shared across the package.

`cli.EXIT_CODES` maps these, and plain OSError, onto the CLI's stable exit
codes: configuration/validation problems exit 2, I/O problems 3, numeric
failures 4 and pipeline failures 5.
"""

import functools


class RantwinError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(RantwinError):
    """Invalid configuration value or malformed config/schedule file."""


class DomainError(RantwinError):
    """Operation called with inputs outside its domain."""


class DataFormatError(RantwinError):
    """Malformed artifact file (dataset CSV, stats CSV, model file)."""


class NumericError(RantwinError):
    """Non-finite value produced where a finite one is required."""


class TrainingError(NumericError):
    """Training diverged or failed to reduce the loss."""


class ProtocolError(RantwinError):
    """Message-bus ordering contract violated."""


class PipelineError(RantwinError):
    """A multi-stage run failed for a non-configuration reason."""


def names_file(what: str):
    """Decorate a reader whose first argument is a path, so that a
    DataFormatError it raises reads '<what> file <path>: <message>'."""
    def decorate(read):
        @functools.wraps(read)
        def reader(path, *args, **kwargs):
            try:
                return read(path, *args, **kwargs)
            except DataFormatError as e:
                raise DataFormatError(f"{what} file {path}: {e}") from e
        return reader
    return decorate
