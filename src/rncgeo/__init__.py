"""Exact-arithmetic geometry of rational normal curves.

Constructs, verifies and obstructs rational normal curves in P^n subject
to point-incidence and (n-1)-secancy constraints, computes exact Hilbert
functions of fat-point/double-space schemes, and decides ordered
projective equivalence of configurations via parameters on the
interpolating curve.  Everything is computed over Q with no tolerances.

The re-exported function `construct` shadows the submodule of the same
name, so `import rncgeo.construct as m` binds the function.  Use
`from rncgeo.construct import ...`, or `sys.modules["rncgeo.construct"]`
for the module object.
"""

from .binforms import BinaryForm, binary_gcd, form_from_roots, is_squarefree
from .construct import (
    CountAnalysis,
    Datum,
    ExistenceCertificate,
    UnsupportedCase,
    construct,
    construct_np2_one_space,
    construct_one_point,
    construct_three_points,
    construct_through_points,
    construct_through_points_cremona,
    construct_two_points,
    cremona_apply,
    cremona_pullback_line,
    expected_count,
    special_datum,
)
from .curves import (
    DetRnc,
    ParamRnc,
    SecancyResult,
    VerificationReport,
    chord_space,
    curve_equals,
    det_to_param,
    generalized_column_for,
    moment_curve,
    param_of_point,
    param_to_det,
    parameter,
    point_at,
    point_at_param,
    reparametrize,
    restrict,
    secancy,
    verify_datum,
)
from .equivalence import Signature, are_equivalent, signature, signature_from_curve
from .errors import (
    BadDimension,
    BadShape,
    BothZero,
    DegenerateSpan,
    DimensionMismatch,
    FundamentalLocus,
    GeometryError,
    NotGeneric,
    NotGenericMatrix,
    ObstructionFails,
    ParseError,
    RepeatedParameter,
    UnsupportedCaseError,
    ZeroForm,
    ZeroParameter,
)
from .linalg import Matrix, ff_rank, nullspace
from .obstruct import (
    DegreeLedger,
    ObstructionCertificate,
    nonexistence_certificate,
    obstruction_quadric,
)
from .postulation import (
    DefectWitness,
    PostulationReport,
    SchemeSpec,
    ah_exceptions_suite,
    conditions_rows,
    defect_explanation,
    hilbert_function,
)
from .projective import (
    LinForm,
    Pencil,
    ProjPoint,
    ProjTransform,
    apply_transform,
    coordinate_points,
    frame_map,
    pencil_from_points,
    standard_frame,
    unit_point,
)
from .scalars import QQ

__version__ = "0.1.0"
