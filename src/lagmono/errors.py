"""Exception hierarchy shared across the package.

Parse errors mean the input file or string is malformed; validation errors
mean well-formed input that violates a mathematical precondition.  The CLI
maps these to exit codes 3 and 2 respectively.
"""


class LagmonoError(Exception):
    """Base class for all package errors."""


class ParseError(LagmonoError):
    """Malformed input text (polytope, group, catalog or potential file)."""


class ValidationError(LagmonoError):
    """Well-formed input violating a precondition."""


class NonUnimodularError(ValidationError):
    """Matrix expected to have determinant +-1 does not."""


class NotFiniteError(ValidationError):
    """Group proved infinite: two elements congruent mod 3, or more than Minkowski's bound."""


class NotMonotoneError(ValidationError):
    """Polytope admits no interior point with all facet offsets equal."""


class SearchTooLargeError(ValidationError):
    """A search or element list would pass its resource limit; this proves nothing about the input."""


class GridTooLargeError(ValidationError):
    """A torsion-point grid enumeration would exceed its configured bound."""


class InconsistentPermutationError(ValidationError):
    """Permutation of the normals is not induced by any integral linear map."""


class NotCriticalError(ValidationError):
    """Point is not a critical point of the given potential."""


class NotInvariantError(ValidationError):
    """Potential is not invariant under the required group."""


class DimensionError(ValidationError):
    """Input has a dimension the computation does not support."""


class NotUnivariateError(ValidationError):
    """Potential does not depend on a single variable."""


class BadDiscriminantError(ValidationError):
    """Binary form discriminant outside the supported values +1 and -1."""


class UnsupportedActionError(ValidationError):
    """Monodromy action shape not handled by the solver."""
