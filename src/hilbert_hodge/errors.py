"""Exception hierarchy shared by the whole package."""


class HilbertHodgeError(Exception):
    """Base class for every error raised by this package."""


class BadDegree(HilbertHodgeError):
    """Degree data out of range: n < 1 (n < 2 for a table or variety), a
    negative weight, m of the wrong length, or n > 64 in subset counting."""


class TrivialSystem(HilbertHodgeError):
    """The zero multi-weight was passed where a non-trivial system is required."""


class InconsistentInvariants(HilbertHodgeError):
    """Variety invariants that cannot belong to any Hilbert modular variety."""


class IncompatibleRank(HilbertHodgeError):
    """A local system and variety invariants of different dimension ``n``
    were combined (:meth:`VarietyInvariants.l2_dim`)."""


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
    """Malformed CLI flags or config file, or sweep bounds out of range."""
