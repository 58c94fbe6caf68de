"""Exception hierarchy shared by the whole package."""


class HilbertHodgeError(Exception):
    """Base class for every error raised by this package."""


class BadDegree(HilbertHodgeError):
    """Degree data out of range (n < 1, negative weights, length mismatch)."""


class TrivialSystem(HilbertHodgeError):
    """The zero multi-weight was passed where a non-trivial system is required."""


class InconsistentInvariants(HilbertHodgeError):
    """Variety invariants that cannot belong to any Hilbert modular variety."""


class IncompatibleRank(HilbertHodgeError):
    """Monomials over a different number of line-bundle factors were combined."""


class DoubleTwist(HilbertHodgeError):
    """Both operands of a monomial product carry the O(-S) twist."""


class BadHodgeIndex(HilbertHodgeError):
    """Hodge index P outside [0, |m| + n]."""


class OracleSizeExceeded(HilbertHodgeError):
    """The chain-complex oracle was asked for a basis larger than the cap."""


class OutputTooLarge(HilbertHodgeError):
    """A table or sheaf matrix would exceed the output budget."""


class DictionaryMiss(HilbertHodgeError):
    """A sheaf-cohomology dimension that the closed-form dictionary does not
    determine.  Callers must treat this as "unknown", never as zero."""


class ConfigError(HilbertHodgeError):
    """Malformed CLI flags, config file, or environment override."""
