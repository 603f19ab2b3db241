"""Exception hierarchy for sphlie.

Every failure a caller can act on gets its own class; generic ``ValueError``
is reserved for plain misuse of low-level helpers.
"""


class SphlieError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SphlieError):
    """Vectors or matrices with incompatible dimensions were combined."""


class NotClosed(SphlieError):
    """A bracket (or an image under a map) escapes the span it must stay in."""


class NotReductive(SphlieError):
    """An algebra fails the reductive split g = z(g) + [g, g]."""


class NotCartanInvolution(SphlieError):
    """A given theta is not a Cartan involution of g: it is not an
    involutive automorphism, or it is one but the Killing form is not
    negative definite on k ∩ [g, g] and positive definite on s ∩ [g, g]."""


class SpectrumError(SphlieError):
    """An operator that must act semisimply with rational eigenvalues does not."""


class NotSpherical(SphlieError):
    """An operation that requires an open minimal-parabolic orbit was called
    on a pair without one."""


class UniquenessViolation(SphlieError):
    """An internally certified uniqueness statement failed; indicates a bug
    or an invalid input that slipped past validation."""


class CertificationError(SphlieError):
    """A decomposition could not be verified exactly; the library refuses to
    return an uncertified answer."""


class NotNilpotent(SphlieError):
    """An element or subalgebra that must act nilpotently does not, so a
    finite exponential series would not terminate."""


class UnreachableTarget(SphlieError):
    """The requested orbit target lies outside the reachable set, the
    bracket image [x0, u]."""


class ProblemFormatError(SphlieError):
    """A problem file is malformed.  The message carries the JSON path."""
