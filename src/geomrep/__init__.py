"""Incidence systems, their correlation groups, and mechanical verification."""

__version__ = "0.1.0"

from .perms import BlockAction, GroupFingerprint, PermGroup, Permutation
from .incidence import IncidenceSystem, ValidationReport, validate_data
from .autsearch import (
    AutResult,
    RepresentationReport,
    correlation_group,
    correlation_type_action,
    find_isomorphism,
    type_preserving_group,
    verify_representation,
)
from .galois import (
    FiniteField,
    ProjectiveSpace,
    ProjectiveSubspace,
    duality_map,
    frobenius_point_map,
    make_field,
    pgl_group,
    pgl_order,
    projective_space,
)
from .constructions import (
    CosetGeometry,
    CosetGeometrySpec,
    FtReport,
    PglAutReport,
    PglGeometry,
    RcReport,
    check_ft_condition,
    check_rc_condition,
    complete_graph_geometry,
    coset_geometry,
    cube_geometry,
    dihedral_geometry,
    duality_truncation_perm,
    extend_truncation_correlation,
    frobenius_truncation_perm,
    gq22,
    hemidodecahedron_petrie,
    pgl_aut_via_extension,
    pgl_cross_ratio_geometry,
    tetrahedron_spec,
    totient_pairs,
)
from .freegroup import (
    BoundedFtReport,
    FreeAutomorphism,
    RcExactReport,
    StallingsGraph,
    all_reduced_words,
    bounded_ft_check,
    concat,
    format_word,
    graph_basis,
    intersection,
    k_group,
    membership,
    parse_word,
    product_membership,
    rc_check_exact,
    reduce_word,
    rose_cover_generators,
    stallings_graph,
    subgroup_action,
    word_inverse,
)
