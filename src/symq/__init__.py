"""Workbench for twisted-conjugation quandles over finite groups.

Builds quandles of the form x ^ y = phi(x) phi(y^-1) y from a finite group
and one of its automorphisms, decides kei-ness and connectedness, enumerates
good involutions with an exhaustive oracle, and classifies symmetric quandle
structures two independent ways (pairwise isomorphism search, and centralizer
orbits on fixed self-inverse elements) with the agreement machine-checked.
"""

from .__about__ import __version__
from .budget import DEFAULT_SEARCH_BUDGET, SearchBudget, resolve_budget
from .catalog import (
    CatalogEntry,
    abelian_invariant_chains,
    catalog_entries,
    catalog_family,
    run_catalog,
)
from .errors import (
    BadElement,
    DimensionTooLarge,
    HypothesisNotMet,
    InternalConsistencyError,
    MalformedPermutation,
    MalformedTable,
    ModelInconsistency,
    NoIdentity,
    NoInverse,
    NotAbelian,
    NotAssociative,
    NotBijective,
    NotCentralizing,
    NotConnected,
    NotFixedTwoTorsion,
    NotGalexOrigin,
    NotMultiplicative,
    NotOpPreserving,
    Q1Violation,
    Q2Violation,
    Q3Violation,
    SearchBudgetExceeded,
    SpecParseError,
    SymqError,
    UnsupportedOrder,
)
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    OrbitPartition,
    alternating_group,
    centralizer_in_aut,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_automorphisms,
    fixed_two_torsion,
    identity_automorphism,
    inversion_automorphism,
    is_abelian,
    orbits_under,
    quaternion_group,
    symmetric_group,
    validate_automorphism,
    validate_group,
)
from .involutions import (
    InvolutionViolation,
    SqClassification,
    SymmetricQuandle,
    check_good_involution,
    classify_sq_bruteforce,
    classify_sq_theorem,
    cross_check_sq,
    enumerate_good_involutions,
    exists_good_involution_galex,
    good_involutions_closed_form,
    is_good_involution,
    rho_r,
    symmetric_quandle,
    symmetric_quandle_isomorphic,
)
from .quandles import (
    FiniteQuandle,
    QuandleMap,
    affine_automorphism,
    f_sharp,
    galex,
    inner_orbits,
    is_connected,
    is_kei,
    kei_witness,
    quandle_automorphisms,
    quandle_isomorphisms,
    quandle_map,
    validate_quandle,
)
from .report import emit_report, emit_reports
from .specs import GroupSpec, build_group, parse_aut_spec, parse_group_spec
from .torus import (
    MAX_DIMENSION,
    BitVector,
    Transvection,
    torus_report_data,
    torus_sq_class_count,
    transvection_orbit,
    two_torsion_set,
)
