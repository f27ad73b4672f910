"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Dimension mismatch between parameters, features, or model layout."""


class DomainError(ValueError):
    """Argument outside the operation's domain (labels, radii, counts)."""


class ProtocolError(RuntimeError):
    """Message sequencing violated the client/server contract, or a run
    diverged: an update or the training loss went non-finite."""


class ConfigError(ValueError):
    """Run configuration violates its invariants."""


class UsageError(ValueError):
    """Operation invoked with inconsistent or missing inputs."""


class UnsupportedModelError(RuntimeError):
    """Gradient-based baseline asked to train a black-box model."""


class ParseError(ValueError):
    """Dataset or transcript file failed to parse; the message names the line."""


class FormatError(ValueError):
    """Dataset file does not match its declared binary format."""
