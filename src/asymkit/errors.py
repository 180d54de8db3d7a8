"""Exception hierarchy.

Validation failures (bad inputs, violated construction invariants) are
distinguished from numerical-degeneracy failures (a valid input on which a
numerical method could not reach its stated accuracy), because the CLI maps
them to different exit codes.
"""


class AsymkitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AsymkitError):
    """An input or a constructed object violates a stated invariant."""


class InvalidParameterError(ValidationError):
    """A scalar parameter is outside its allowed range."""


class SizeLimitError(ValidationError):
    """A requested object exceeds the desk-scale size cap."""


class GroupMismatchError(ValidationError):
    """Two objects that must share a group were built over different groups."""


class DimensionMismatchError(ValidationError):
    """Matrix or vector dimensions are incompatible."""


class InvalidSubgroupError(ValidationError):
    """An element set is not closed under multiplication and inverses."""


class PureStateRequiredError(ValidationError):
    """A pure-state-only operation received a mixed state."""


class NotPositiveSemidefiniteError(ValidationError):
    """A matrix required to be Hermitian PSD is not, beyond tolerance."""


class InvalidCharacteristicFunctionError(ValidationError):
    """A candidate function fails positive-definiteness or normalization."""


class NotInvariantIsometryError(ValidationError):
    """The given map is not an invariant isometry on the given support."""


class ToleranceError(AsymkitError):
    """A tolerance-dependent set violates an exact structural property.

    Raised when e.g. a symmetry-subgroup computation produces an element set
    that is not closed: closure holds exactly in theory, so a violation at the
    working tolerance indicates the tolerance is misconfigured for the input.
    """


class NumericalDegeneracyError(AsymkitError):
    """A numerical method failed its own check on a valid input.

    Each failure is reproducible: the character table tries four fixed random
    sums before raising.  ``decompose`` draws one splitting twirl per isotype
    from its seed's generator and raises at once if that twirl's copies collide,
    as its multiplicity, isotype and residual checks and ``gns_construct``'s check
    of the rebuilt chi do; another seed draws other twirls.
    """
