"""Exception hierarchy shared by all schmidtkit modules.

Every error raised by the library derives from :class:`SchmidtkitError`, so
callers (including the CLI) can catch one base class and still report the
concrete failure kind by class name.
"""


class SchmidtkitError(Exception):
    """Base class for all schmidtkit errors."""


class ToleranceError(SchmidtkitError):
    """A tolerance is not a finite positive number."""


class NonSquareError(SchmidtkitError):
    """A square matrix was required."""


class DimensionMismatchError(SchmidtkitError):
    """Operands have incompatible dimensions."""


class NotHermitianError(SchmidtkitError):
    """Matrix deviates from Hermitian beyond tolerance."""


class NoConvergenceError(SchmidtkitError):
    """Eigensolver failed to converge."""


class NotNormalError(SchmidtkitError):
    """Matrix fails the normality test beyond tolerance."""


class NotCommutingError(SchmidtkitError):
    """A matrix family required to commute does not."""

    def __init__(self, message, pair=None, norm=None):
        super().__init__(message)
        self.pair = pair
        self.norm = norm


class NotNormalizedError(SchmidtkitError):
    """Amplitude vector is too far from unit norm to renormalize silently."""


class NotPSDError(SchmidtkitError):
    """Matrix is not positive semidefinite within tolerance."""


class TraceError(SchmidtkitError):
    """Trace deviates from its required value beyond tolerance."""


class NotUnitaryError(SchmidtkitError):
    """Matrix is not unitary within tolerance."""


class CertificationError(SchmidtkitError):
    """A certified maximally correlated state fails its consistency check."""


class NotDecomposableError(SchmidtkitError):
    """Operation requires a simultaneously decomposable input."""


class VerificationError(SchmidtkitError):
    """A constructed object failed its independent verification."""


class BasisOrthogonalityError(SchmidtkitError):
    """Constructed basis vectors deviate from orthonormality; tolerances broke down."""


class EnumerationCapError(SchmidtkitError):
    """Requested enumeration exceeds the configured subset cap."""


class CanonicalizationError(SchmidtkitError):
    """No local-unitary canonical form of the requested shape exists or was found."""


class ProtocolMismatchError(SchmidtkitError):
    """Protocol and state set disagree on dimension or membership."""


class DocumentError(SchmidtkitError):
    """Malformed input document."""
