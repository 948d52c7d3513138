"""Exception types shared across the package."""


class LatentWalkError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(LatentWalkError):
    """Operands whose shapes do not conform to an operation's shape rule."""


class DomainError(LatentWalkError):
    """Input outside the mathematical domain of an operation (e.g. log of 0)."""


class ContractViolation(LatentWalkError):
    """A documented precondition of an API was not met by the caller."""


class DegenerateGeometryError(LatentWalkError):
    """Geometric construction is ill-defined (e.g. slerp between antipodes)."""


class DivergenceError(LatentWalkError):
    """An iterative solver failed to converge within its iteration cap."""


class IdxFormatError(LatentWalkError):
    """Malformed IDX file; `offset` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ConfigError(LatentWalkError):
    """Bad run configuration; `line` is the 1-based offending line, 0 for
    the file itself."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CheckpointError(LatentWalkError):
    """Unreadable or corrupt checkpoint file."""


class ChecksumError(CheckpointError):
    """Checkpoint payload does not match its stored checksum."""


class VersionError(CheckpointError):
    """Checkpoint carries an unrecognised format version."""
