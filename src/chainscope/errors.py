"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: usage errors exit 1, any
ChainscopeError exits 2, unexpected exceptions exit 3.
"""


class ChainscopeError(Exception):
    """Base class for all validation and processing errors."""


class ParseError(ChainscopeError):
    """A raw value (timestamp, record, document) could not be parsed.

    Carries the offending string so callers can report it verbatim.
    """

    def __init__(self, message: str, offending: str = ""):
        super().__init__(message)
        self.offending = offending


class FormatMismatchError(ChainscopeError):
    """A file's parse rate fell below the adapter's acceptance threshold."""


class RuleError(ChainscopeError):
    """A tagging rule failed validation (bad pattern, duplicate id, ...)."""


class ConfigError(ChainscopeError):
    """A declarative config document is malformed or inconsistent."""


class ScenarioError(ChainscopeError):
    """A scenario spec or attack template is invalid."""


class SanitizeError(ChainscopeError):
    """Pseudonymization policy violation or unknown category."""


class EventIdError(ChainscopeError):
    """Event ids repeat, or tag decisions do not line up one-to-one with events."""
