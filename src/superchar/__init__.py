"""Exact supercharacter theories and arithmetic invariants of finite groups.

Everything is computed in exact arithmetic: rationals via Fraction and
roots of unity via a canonical cyclotomic representation.  The pipeline
runs group -> character table (Dixon) -> supercharacter theories ->
compatible families -> integer systems with verifiable decomposition,
restriction and inequality theorems.
"""

from .chartab import (
    CharacterTable,
    ClassFunction,
    character_multiplicities,
    decompose,
    dixon_character_table,
    has_only_linear_constituents,
    induce,
    inner_product,
    linear_combination,
    regular_character,
    restrict,
    trivial_character,
    verify_orthogonality,
)
from .cyclo import Cyclotomic, cyclotomic_polynomial, zeta
from .errors import (
    GroupMismatch,
    IncompatibleFamily,
    IncompatibleTheories,
    InvalidCertificate,
    NotACharacter,
    NotAGroup,
    NotAPartition,
    NotASubgroup,
    NotASuperclassFunction,
    NotASupercharacterTheory,
    OrderCapExceeded,
    PrimeRejected,
    SchemaError,
    SubgroupNotInFamily,
    SupercharError,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    alternating_group,
    builtin_group,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    enumerate_subgroups,
    group_from_cayley,
    group_from_permutations,
    quaternion_group,
    subgroup_from_elements,
    symmetric_group,
    trivial_subgroup,
    whole_subgroup,
)
from .nsystems import (
    DecompositionCertificate,
    NSystem,
    check_ach3,
    find_uvdw_certificate,
    verify_artin_takagi,
    verify_heilbronn_stark,
    verify_uvdw,
)
from .theories import (
    CompatibleFamily,
    SuperclassFunction,
    SupercharacterTheory,
    classical_theory,
    enumerate_theories,
    is_compatible,
    make_family,
    make_theory,
    maximal_theory,
    srestrict,
    superinduce,
    theory_from_class_blocks,
)

__version__ = "0.1.0"
