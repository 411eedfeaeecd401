"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: DomainError (and subclasses) -> 1,
ParseError -> 2, ResourceError -> 3, ContractError -> 4.  ContractError
signals a broken internal invariant, that is, a bug; the library never
catches it, and the CLI reports it in one line.
"""


class OrdhomeoError(Exception):
    pass


class DomainError(OrdhomeoError):
    """A value outside an operation's domain, or a violated precondition."""


class ValidationError(DomainError):
    """An invalid piece system; the message names the offending piece."""


class ParseError(OrdhomeoError):
    """Malformed input text.  `position` is a 1-based column index."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class ResourceError(OrdhomeoError):
    """A configured cap (nesting depth, enumeration size) was exceeded."""


class ContractError(OrdhomeoError):
    """An internal invariant failed; this indicates a bug."""
