"""Exception hierarchy shared across the package.

Everything derives from :class:`QsoError` so callers (notably the CLI)
can catch one base class and map it to a nonzero exit code.
"""


class QsoError(Exception):
    """Base class for all errors raised by this package."""


# --- genotype spaces -------------------------------------------------------

class EmptyComponent(QsoError):
    """A trait component was declared with no alleles."""


class DuplicateLabel(QsoError):
    """An allele label occurs twice within one component."""


# --- operators --------------------------------------------------------------

class AsymmetricMeasure(QsoError):
    """A base measure assigns different mass to mirrored female/male genotypes."""


class ZeroMassOffspringSet(QsoError):
    """The base measure gives zero mass to some parent pair's offspring set."""


class MissingPair(QsoError):
    """A measure family has no entry for some (female, male) parent pair."""


class DistributionOutsideHyperSimplex(QsoError):
    """A distribution violates total-mass or female/male-mass constraints."""


class NotOneToOne(QsoError):
    """Operation requires the 1:1 sex ratio but the tensor carries p != q."""


class ChildAsymmetry(QsoError):
    """Tensor coefficients differ between mirrored child genotypes."""


class DimensionMismatch(QsoError, ValueError):
    """Operand dimensions are incompatible.  Also a ``ValueError``."""


class GenderAsymmetric(QsoError):
    """Folding requires equal female/male values per trait; input differs."""


# --- dynamics ---------------------------------------------------------------

class NoConvergence(QsoError):
    """Fixed-point search exhausted its budget above tolerance.

    Carries the best-effort ``report`` (a ``FixedPointReport``) so callers
    can still inspect the non-converged state.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class AlphaOutOfRange(QsoError):
    """A trait weight lies outside its admissible open interval."""


class InvalidCoefficients(QsoError):
    """1D quadratic coefficients do not define a valid operator row pair."""


# --- models -----------------------------------------------------------------

class NonPositiveAlpha(QsoError):
    """Multi-allele weights must be strictly positive."""


class BadSum(QsoError):
    """A weight vector does not sum to the required total."""


# --- ingest -----------------------------------------------------------------

class MissingParentPair(QsoError):
    """A counts table has no rows at all for some (mother, father) pair."""


class ZeroTotal(QsoError):
    """A parent pair has rows but a zero total child count."""


class ParseError(QsoError):
    """A file field could not be parsed; reports line and column."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(QsoError):
    """A file violates the structural schema (header, columns, ordering)."""


class InvariantViolation(QsoError):
    """Loaded values violate measure-family invariants.

    Carries the offending ``report`` (a ``ValidationReport``-style object).
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
