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
    """A request the library cannot serve, raised before any numerical
    work on it: a point x or a scale w that is not positive or not
    finite, too few or unordered scales, quadrature settings out of range
    or asking for a rule past its size bound, a combination order outside
    1..12, an expansion order j below 1 or a function without the
    derivative of order j, a moment order or u out of range, or a
    non-positive tolerance."""
