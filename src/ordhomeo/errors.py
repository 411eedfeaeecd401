"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: DomainError (and subclasses) -> 1,
ParseError -> 2, ResourceError -> 3, ContractError -> 4.  ContractError
signals a broken internal invariant, that is, a bug; the library never
catches it, and the CLI reports it in one line.
"""


class OrdhomeoError(Exception):
    """`position`, when known, is the 1-based column of the fault in the
    text read; the message ends with it, so a caller that read the text
    as part of a longer one can move it."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.position is None else f"{text} (position {self.position})"


class DomainError(OrdhomeoError):
    """A value outside an operation's domain, or a violated precondition."""


class ValidationError(DomainError):
    """An invalid piece system; the message names the offending piece."""


class ParseError(OrdhomeoError):
    """Malformed input text."""


class ResourceError(OrdhomeoError):
    """A configured cap (nesting depth, enumeration size) was exceeded."""


class ContractError(OrdhomeoError):
    """An internal invariant failed; this indicates a bug."""
