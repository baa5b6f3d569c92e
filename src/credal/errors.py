"""Exception hierarchy shared by all credal modules."""


class CredalError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CredalError):
    """A value fails a construction invariant (bad label, bad weight, ...)."""


class FrameMismatchError(CredalError):
    """Two values built over different frames were combined."""

    def __init__(self, left: str, right: str):
        super().__init__(f"frame mismatch: operands belong to different frames ({left} vs {right})")
        self.left, self.right = left, right

    def __reduce__(self) -> tuple:  # `args` holds the message, not the two frames
        return type(self), (self.left, self.right)


class NormalizationError(CredalError):
    """An operation that requires a normalized distribution received a subnormal one."""


class ConditioningError(CredalError):
    """Conditioning on an event of (near-)zero probability."""


class DocumentError(CredalError):
    """A parse or lookup error in a document, carrying the source line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
