"""Exception types shared across the package."""


class FieldMismatchError(ValueError):
    """Scalars or containers from incompatible fields were combined."""


class ShapeError(ValueError):
    """Dimensions of an operand do not match the operation."""


class PreconditionError(ValueError):
    """A gated constructor was called with inputs failing its hypothesis."""


class BudgetExceededError(RuntimeError):
    """A search or a check would exceed its budget of candidates or basis inputs."""


class FormatError(ValueError):
    """A structure file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
