"""Exception types shared across the package."""

__all__ = ["InputError", "ParseError"]


class InputError(ValueError):
    """Raised when caller-supplied data violates a documented precondition."""


class ParseError(InputError):
    """Input-file syntax or validation error, tagged with a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line
