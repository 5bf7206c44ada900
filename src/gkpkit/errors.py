"""Exception hierarchy shared by all gkpkit modules."""


class GkpError(Exception):
    """Base class for all gkpkit errors."""


class InvalidArgumentError(GkpError):
    """A caller-supplied argument violates a precondition."""


class DegenerateInputError(InvalidArgumentError):
    """Input is formally valid but degenerate (e.g. constant matrix)."""


class NumericalFailureError(GkpError):
    """A numerical routine (eigensolver, power-law fit) failed."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)


class MassDeficitError(GkpError):
    """A quadrature grid fails to capture enough probability mass."""

    def __init__(self, message, captured_mass):
        super().__init__(message)
        self.captured_mass = captured_mass


class SchemaVersionError(InvalidArgumentError):
    """A persisted file carries an unknown or missing schema version."""
