"""Exception types shared across the package, the rules that check
every integer and number setting, control field or model entry, and the
two that read every JSON file and build a config from it: each site
passes its bounds or its document's name and the exception its callers
catch, and the message names the field, the entry or the document."""

import json
import math

import numpy as np


def check_integer(value, what: str, lo, hi, error: type) -> int:
    """Return ``value`` as a Python int, whose arithmetic cannot overflow,
    if it is an int or a NumPy integer, never a bool, in [lo, hi]; else
    raise ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
        raise error(f"{what} must be an integer in [{lo}, {hi}], not {value!r}")
    return int(value)


def check_number(value, what: str, lo, hi, error: type):
    """Return ``value`` if it is an int or a float (NumPy's too), never a
    bool, finite and in [lo, hi]; else raise ``error`` naming ``what``."""
    # compared, not math.isfinite: an int past float range is finite
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not (lo <= value <= hi and -math.inf < value < math.inf)):
        raise error(f"{what} must be a finite number in [{lo}, {hi}], not {value!r}")
    return value


def check_numbers(values, what: str, lo, hi, error: type) -> np.ndarray:
    """Return the JSON array ``values`` as a float64 array if it is a list
    whose every entry passes ``check_number``, the i-th named
    ``what[i]``; else raise ``error``."""
    if not isinstance(values, list):
        raise error(f"{what} must be an array of numbers, not {type(values).__name__}")
    return np.array([check_number(v, f"{what}[{i}]", lo, hi, error)
                     for i, v in enumerate(values)], dtype=np.float64)


def read_json(path: str, what: str, error: type):
    """Return the JSON document in the file at ``path``; raise ``error``
    naming ``what`` and the path when the file cannot be opened, is not
    UTF-8, is not JSON or nests past the parser's recursion limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def from_object(cls, doc, what: str, error: type):
    """Return ``cls(**doc)`` for a JSON object whose keys are all fields of
    the dataclass ``cls``; else raise ``error`` naming ``what``, also for a
    ``TypeError`` or ``ValueError`` from the constructor."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, not {type(doc).__name__}")
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise error(f"unknown {what} fields: {sorted(unknown)}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise error(f"bad {what}: {exc}") from exc


class FloorspaceError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRangeError(FloorspaceError):
    """A time range was reversed or otherwise malformed."""


class UnsupportedFormatError(FloorspaceError):
    """Audio input does not match the supported PCM format."""


class PacketFormatError(FloorspaceError):
    """A datagram could not be parsed as an audio packet."""


class CorpusError(FloorspaceError):
    """A corpus file or in-memory corpus violates its contract."""


class TrainingError(FloorspaceError):
    """Training data is insufficient to fit a model."""


class ModelFormatError(FloorspaceError):
    """A model file is malformed."""


class ModelVersionError(ModelFormatError):
    """A model file declares an incompatible format version."""


class ConfigError(FloorspaceError):
    """A configuration value lies outside what the program can run with."""


class CapacityError(ConfigError):
    """Participant count exceeds what exhaustive configuration search allows."""


class PinPermissionError(FloorspaceError):
    """A pinned configuration was modified by someone other than its owner."""


class EvaluationError(FloorspaceError):
    """An evaluation run cannot be carried out on the given corpus."""
