"""Exception types shared across the package."""


class ExpSampleError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(ExpSampleError):
    """A numerical evaluation produced an invalid value (NaN, infinity,
    domain violation) or could not be carried out."""


class ParseError(ExpSampleError):
    """Expression could not be parsed.  Carries the offset of the
    offending token, a character index into the source."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class KernelError(ExpSampleError):
    """Invalid kernel construction or descriptor."""


class OutputError(ExpSampleError):
    """An output file could not be written."""


class InputError(ExpSampleError, ValueError):
    """A point x or a scale w outside what the operator accepts: not
    positive, not finite, or too few or unordered scales."""
