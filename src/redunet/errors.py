"""Exception types shared across the package.

Three families matter to the command line harness: configuration problems,
data problems (unreadable or inconsistent input files), and numerical
problems (violated preconditions of the linear algebra). Each family maps
to a distinct process exit code.
"""


class RedunetError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(RedunetError):
    """Bad experiment configuration: unknown key, missing value, bad type."""


class DataError(RedunetError):
    """Input data could not be read or is internally inconsistent."""


class BadMagic(DataError):
    """A binary file does not start with the expected magic number."""


class TruncatedFile(DataError):
    """A binary file ends before its header says it should."""


class LabelImageCountMismatch(DataError):
    """An image file and a label file disagree on the sample count."""


class VersionMismatch(DataError):
    """A model archive was written by an unsupported format version."""


class ChecksumFailure(DataError):
    """A model archive's trailing checksum does not match its content."""


class BadArchiveValue(DataError):
    """A model archive's header holds a value outside its domain."""


class NumericalError(RedunetError):
    """A numerical precondition was violated."""


class NotPositiveDefinite(NumericalError):
    """A matrix that must be positive definite failed its Cholesky factorization."""


class EmptyClass(NumericalError):
    """A partition assigns no samples to one of its classes."""


class ZeroVector(NumericalError):
    """A vector that must be normalized has (numerically) zero norm."""


class RadiusOutOfBounds(NumericalError):
    """A polar sampling radius leaves the image's inscribed circle."""


class StepsNotDividingGamma(NumericalError):
    """A rotation step count does not divide the angular grid size."""


class LengthMismatch(RedunetError):
    """Two sequences that must be aligned have different lengths."""


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the harness exit code family it belongs to."""
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (DataError, OSError)):
        return EXIT_DATA
    if isinstance(exc, (NumericalError, LengthMismatch)):
        return EXIT_NUMERICAL
    return 1
