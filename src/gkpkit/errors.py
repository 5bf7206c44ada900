"""Exception hierarchy shared by all gkpkit modules: one class per CLI exit code."""


class GkpError(Exception):
    """Base class for all gkpkit errors."""


class InvalidArgumentError(GkpError):
    """A caller-supplied argument or file violates a precondition (exit 2)."""


class NumericalFailureError(GkpError):
    """A numerical routine failed (exit 3). Keyword diagnostics are kept in
    `diagnostics` and appended to the message as 'key=value' pairs."""

    def __init__(self, message, **diagnostics):
        if diagnostics:
            shown = ", ".join(f"{key}={value}" for key, value in diagnostics.items())
            message = f"{message} ({shown})"
        super().__init__(message)
        self.diagnostics = diagnostics
