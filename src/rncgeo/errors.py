"""Typed error hierarchy shared by all rncgeo modules.

Every geometric failure carries enough payload (stage tag, witness object)
to be rendered as a diagnostic by the CLI without string parsing.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for all rncgeo errors."""

    code = "geometry_error"


class DimensionMismatch(GeometryError):
    code = "dimension_mismatch"


class BadDimension(GeometryError):
    """Ambient dimension out of range (n < 3 where the theory needs n >= 3)."""

    code = "bad_dimension"


class BothZero(GeometryError):
    """gcd of two identically zero binary forms."""

    code = "both_zero"


class ZeroForm(GeometryError):
    code = "zero_form"


class ZeroParameter(GeometryError):
    """(s, u) = (0, 0) is not a point of the parameter line."""

    code = "zero_parameter"


class RepeatedParameter(GeometryError):
    code = "repeated_parameter"


class DegenerateSpan(GeometryError):
    """Points that fail to span the requested linear space."""

    code = "degenerate_span"


class NotGeneric(GeometryError):
    """A genericity precondition failed.

    `stage` names the step that detected the failure, `witness` is the
    offending data (a point subset, a kernel dimension, ...).
    """

    code = "not_generic"

    def __init__(self, message: str, *, stage: str | None = None, witness=None):
        super().__init__(message)
        self.stage = stage
        self.witness = witness


class NotGenericMatrix(NotGeneric):
    """A 2 x n matrix of linear forms whose rank-one locus is not a rnc."""

    code = "not_generic_matrix"


class FundamentalLocus(NotGeneric):
    """Cremona input meeting the indeterminacy locus."""

    code = "fundamental_locus"


class ObstructionFails(NotGeneric):
    """The excluded point lies on the obstruction quadric: the datum is
    special and the generic non-existence argument does not apply to it."""

    code = "obstruction_fails"


class BadShape(GeometryError):
    """A (p, l) shape no route answers: off the p + l = n + 3 line
    without four points and two spaces, or too few of either for the
    obstruction.

    Carries the count analysis so callers can report the verdict instead.
    """

    code = "bad_shape"

    def __init__(self, message: str, *, analysis=None):
        super().__init__(message)
        self.analysis = analysis


class UnsupportedCaseError(GeometryError):
    """Requested an operation the theory leaves open (e.g. signatures with
    fewer than three points)."""

    code = "unsupported"


class ParseError(GeometryError):
    """Malformed input document; `location` is a /-separated path."""

    code = "parse_error"

    def __init__(self, message: str, *, location: str = ""):
        super().__init__(message)
        self.location = location
