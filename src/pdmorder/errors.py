"""Exception taxonomy shared across the package.

Data problems (bad files, inconsistent landmark counts, too few samples,
degenerate geometry, contract misuse) derive from DataError; numerical
breakdowns that survive input validation derive from NumericalError.  The
command line maps DataError to exit code 2 and NumericalError to exit code 3.
"""


class PdmOrderError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PdmOrderError):
    """Input data violates a documented contract."""


class NumericalError(PdmOrderError):
    """A numerical procedure failed beyond recovery."""


class ParseError(DataError):
    """A shape or model file could not be parsed."""


class TooFewSamples(DataError):
    """Not enough shapes for the requested operation."""


class DegenerateShape(DataError):
    """A shape has no spatial extent (all landmarks coincide)."""


class NotAligned(DataError):
    """Operation requires a Procrustes-aligned shape set."""


class OrderOutOfRange(DataError):
    """Requested model order exceeds the usable rank."""


class DimensionMismatch(DataError):
    """Shapes or array arguments disagree on dimensions."""


class ZeroVariance(DataError):
    """The sample covariance carries no variance at all."""


class SingularSystem(NumericalError):
    """A linear system became numerically singular."""
