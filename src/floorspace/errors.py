"""Exception types shared across the package."""


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


class CapacityError(FloorspaceError):
    """Participant count exceeds what exhaustive configuration search allows."""


class PinPermissionError(FloorspaceError):
    """A pinned configuration was modified by someone other than its owner."""


class EvaluationError(FloorspaceError):
    """An evaluation run cannot be carried out on the given corpus."""
