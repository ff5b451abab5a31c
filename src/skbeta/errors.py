"""Exception types shared across the package.

Each class carries the exit code the command line returns for it: 2 for
schema, parse and integrity errors, 3 for empty input or an empty result,
5 for a failed internal check, and 4 (the base default) for the rest.
"""


class SkbetaError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 4


class SchemaError(SkbetaError):
    """A required column is missing from an input file."""

    exit_code = 2


class ParseError(SkbetaError):
    """An input file or setting could not be read or parsed; the message
    carries the line number where there is one."""

    exit_code = 2


class EmptyInputError(SkbetaError):
    """An input file or value sequence contained no usable data."""

    exit_code = 3


class IntegrityError(SkbetaError):
    """A fixture failed a strict integrity check (e.g. row count)."""

    exit_code = 2


class DegenerateSampleError(SkbetaError):
    """The sample is too small for the requested statistic."""


class ZeroVarianceError(SkbetaError):
    """All sample values are equal; centered moments of order >= 2 vanish."""


class UndefinedShapeError(ZeroVarianceError):
    """Skewness/kurtosis are undefined because the variance is zero."""


class EmptyResultError(SkbetaError):
    """Every group was filtered out; there is nothing to report."""

    exit_code = 3


class SingularDesignError(SkbetaError):
    """The least-squares design matrix is rank deficient."""


class FitDomainError(SkbetaError):
    """Input data violates the fitted model's domain (e.g. S <= 0)."""


class UnsupportedVariantError(SkbetaError):
    """The operation only applies to a different rank-model variant."""


class NotBetaRepresentableError(SkbetaError):
    """The (S, K) pair lies outside the Beta family (help-variable pole)."""


class UndefinedHelpVariableError(SkbetaError):
    """The (p, q, S) form of the help variable has a zero denominator."""


class InfeasibleMomentPairError(SkbetaError):
    """No positive (a, b) reproduces the requested moment pair.

    Carries the intermediate quantities for diagnosis.
    """

    def __init__(self, message, *, rho=None, discriminant=None, ab=None):
        super().__init__(message)
        self.rho = rho
        self.discriminant = discriminant
        self.ab = ab


class NonNormalizableError(SkbetaError):
    """The limit pmf does not normalize (requires b > 1)."""


class InsufficientDataError(SkbetaError):
    """Not enough tail data to estimate a slope."""


class InternalCheckError(SkbetaError):
    """An internal cross-check failed; indicates a bug, not bad input."""

    exit_code = 5
