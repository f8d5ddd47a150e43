"""Exact construction and verification, over explicit finite fields, of
the tangent systems, multihomogeneous tensor forms and dual hypersurfaces
attached to arcs of projective spaces."""

from .field import (
    GF,
    NotPrimeError,
    ReduciblePolynomialError,
    UnsupportedFieldError,
    make_field,
)
from .forms import Form, FormSubspace, monomial_basis, vanishing_subspace, veronese
from .geometry import (
    Arc,
    arc_from_points,
    conic,
    hyperoval,
    is_arc,
    mds_check,
    normal_rational_curve,
    project,
)
from .sbbt import SBBTForm, build_sbbt, verify_sbbt
from .tangents import (
    TangentCountError,
    TangentSystem,
    build_tangent_system,
    tangent_hyperplanes,
    verify_lemma_of_tangents,
)
from .tensorform import (
    MultiForm,
    build_tensor_form,
    partial_evaluate,
    quadric_check,
    shift_extract,
    verify_tensor_form,
)

__all__ = [
    "GF",
    "NotPrimeError",
    "ReduciblePolynomialError",
    "UnsupportedFieldError",
    "make_field",
    "Form",
    "FormSubspace",
    "monomial_basis",
    "vanishing_subspace",
    "veronese",
    "Arc",
    "arc_from_points",
    "conic",
    "hyperoval",
    "is_arc",
    "mds_check",
    "normal_rational_curve",
    "project",
    "TangentCountError",
    "TangentSystem",
    "build_tangent_system",
    "tangent_hyperplanes",
    "verify_lemma_of_tangents",
    "MultiForm",
    "build_tensor_form",
    "partial_evaluate",
    "quadric_check",
    "shift_extract",
    "verify_tensor_form",
    "SBBTForm",
    "build_sbbt",
    "verify_sbbt",
]

__version__ = "0.1.0"
