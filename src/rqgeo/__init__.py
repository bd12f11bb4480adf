"""Geodesic q-expansions for real quadratic fields.

Computes diagonal restrictions of p-stabilized Eisenstein series over a
real quadratic field from intersection numbers of closed geodesics on
the modular curve of level p, together with the exact constant term
coming from partial zeta values.
"""

from .exact import Mat2
from .field import (
    FieldData,
    NarrowClassGroup,
    ClassCharacter,
    QuadForm,
    build_field,
    narrow_class_group,
    all_characters,
    odd_characters,
    class_of_ideal,
)
from .geodesic import (
    AlgorithmMismatch,
    ClosedGeodesic,
    InertPrime,
    choose_r,
    intersect_winding_cycle,
    intersect_winding_enum,
    manin_table,
    manin_table_enum,
    rm_points,
    twisted_cycle,
)
from .hecke import (
    double_cosets,
    hecke_translate,
    manin_pairings,
    merel_pairings,
    pair_with_twisted_cycle,
    right_cosets,
    sigma1,
)
from .lvalue import (
    NotApplicable,
    L_value_genus_oracle,
    L_value_zagier,
    constant_term,
    euler_factor,
    partial_zeta_values,
)
from .series import (
    QSeries,
    diagonal_restriction,
    eta_product_coeffs,
    modularity_check,
)

__all__ = [
    "Mat2",
    "FieldData",
    "NarrowClassGroup",
    "ClassCharacter",
    "QuadForm",
    "build_field",
    "narrow_class_group",
    "all_characters",
    "odd_characters",
    "class_of_ideal",
    "ClosedGeodesic",
    "InertPrime",
    "choose_r",
    "intersect_winding_cycle",
    "intersect_winding_enum",
    "manin_table",
    "manin_table_enum",
    "rm_points",
    "twisted_cycle",
    "double_cosets",
    "hecke_translate",
    "manin_pairings",
    "merel_pairings",
    "pair_with_twisted_cycle",
    "right_cosets",
    "sigma1",
    "NotApplicable",
    "L_value_genus_oracle",
    "L_value_zagier",
    "constant_term",
    "euler_factor",
    "partial_zeta_values",
    "AlgorithmMismatch",
    "QSeries",
    "diagonal_restriction",
    "eta_product_coeffs",
    "modularity_check",
]

__version__ = "0.1.0"
