"""Exact Chow forms of rational curves in projective space.

Builds the bidegree-(d, d) Chow (Cayley) biform of a parametrized rational
curve from the resultant of its covector contractions (taken as the
determinant of their Plucker-weighted Bezout matrix), tests incidence with
codimension-2 planes (and cross-validates against an independent gcd-based
oracle), rewrites biforms in Plucker coordinates, implicitizes plane
curves, and realizes one-parameter degenerations of a curve onto a joined
pair of curves, checking that the limit biform factors into component Chow
forms.  All arithmetic is exact over Q.
"""

from .chow import (
    CayleyBiform,
    NotBirational,
    PluckerRep,
    cayley_biform,
    contraction_resultant,
    implicitize_plane_curve,
    incident,
    plucker_form,
    plucker_rewrite,
    proportional,
    uv_names,
)
from .curves import CurveMap, Plane, act_gl2, act_gln
from .degeneration import (
    boundary_factor_check,
    family_biform,
    family_limit,
    family_orders,
    join_family,
    limit_direction,
    limit_pform,
    normalize_attachment,
    pform_factor_check,
)
from .oracle import CurveCheck, base_locus_free, check_curve, incident_oracle, map_degree
from .polynomial import (
    BinaryForm,
    MPoly,
    PackedTerms,
    content_primitive,
    contract,
    form_gcd,
    form_gcd_all,
    format_terms,
    parse_rational,
    parse_terms,
    poly_divides,
    rational,
)
from .resultant import (
    SylvesterMatrix,
    bezout,
    det_bareiss,
    det_expand,
    det_laplace_split,
    resultant,
    sylvester,
)

__all__ = [
    "BinaryForm",
    "CayleyBiform",
    "CurveCheck",
    "CurveMap",
    "MPoly",
    "NotBirational",
    "PackedTerms",
    "Plane",
    "PluckerRep",
    "SylvesterMatrix",
    "act_gl2",
    "act_gln",
    "base_locus_free",
    "bezout",
    "boundary_factor_check",
    "cayley_biform",
    "check_curve",
    "content_primitive",
    "contract",
    "contraction_resultant",
    "det_bareiss",
    "det_expand",
    "det_laplace_split",
    "family_biform",
    "family_limit",
    "family_orders",
    "form_gcd",
    "form_gcd_all",
    "format_terms",
    "implicitize_plane_curve",
    "incident",
    "incident_oracle",
    "join_family",
    "limit_direction",
    "limit_pform",
    "map_degree",
    "normalize_attachment",
    "parse_rational",
    "parse_terms",
    "pform_factor_check",
    "plucker_form",
    "plucker_rewrite",
    "poly_divides",
    "proportional",
    "rational",
    "resultant",
    "sylvester",
    "uv_names",
]

__version__ = "0.1.0"
