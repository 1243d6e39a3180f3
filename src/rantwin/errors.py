"""Exception taxonomy shared across the package.

`cli.EXIT_CODES` maps these, and plain OSError, onto the CLI's stable exit
codes: configuration/validation problems exit 2, I/O problems 3, numeric
failures 4 and pipeline failures 5.
"""

import functools
import math
import operator
from dataclasses import fields
from typing import Annotated, get_args, get_origin, get_type_hints


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


_type_hints = functools.cache(functools.partial(get_type_hints, include_extras=True))
_COMPARISONS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def _finite_float(value, name: str, error: type[Exception]) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise error(f"{name} is too large for a float") from None
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {number}")
    return number


def check_fields(obj, error: type[Exception], where: str = "") -> None:
    """Hold each field of the dataclass `obj` to the one type rule and then to
    its bounds, or raise `error` naming the field, `where` prefixed. The type
    rule: an int field holds an integer that is not a bool; a float field, and
    each entry of a tuple-of-floats field, holds a finite real that is not a
    bool, and is stored as a float. A bound is a string such as ">= 1" in the
    field's annotation, `Annotated[int, ">= 1"]`; a value outside it reads
    '<name> must be >= 1, got <value>'. Fields of other types are left to
    their class."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        hint, value, name = hints[f.name], getattr(obj, f.name), where + f.name
        bounds = ()
        if get_origin(hint) is Annotated:
            hint, *bounds = get_args(hint)
        if hint is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise error(f"{name} must be an integer, got {value!r}")
        elif hint is float:
            value = _finite_float(value, name, error)
            object.__setattr__(obj, f.name, value)
        elif get_origin(hint) is tuple and float in get_args(hint):
            if not isinstance(value, (tuple, list)):
                raise error(f"{name} must be a list of numbers, got {value!r}")
            object.__setattr__(obj, f.name, tuple(
                _finite_float(v, f"{name}[{i}]", error) for i, v in enumerate(value)))
        for bound in bounds:
            comparison, limit = bound.split()
            if not _COMPARISONS[comparison](value, float(limit)):
                raise error(f"{name} must be {bound}, got {value}")
