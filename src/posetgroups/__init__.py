"""Finite topological spaces whose symmetries realize a chosen finite group.

The package builds, for any finite group presented by a multiplication
table and a generating set, a finite partially ordered set whose
order-preserving bijections — equivalently, the homeomorphisms of the
associated finite topological space — form a group isomorphic to the one
given.  A second construction attaches small rigidifying gadgets so that
the space is moreover its own homotopy core, every self-homotopy-
equivalence is an actual homeomorphism, and a basepointed variant pins
those symmetries down in the pointed category as well.  Supporting
machinery covers cores and beat points, exhaustive self-map and
automorphism search, order complexes with integral homology, and the
induced action on first homology.
"""

from .complexes import (
    CycleBasis,
    HomologySummary,
    OrderComplex,
    cycle_basis,
    h1_action_ids,
    h1_action_matrix,
    homology_summary,
    order_complex,
)
from .errors import (
    ConstructionError,
    ContainsIdentityError,
    DoesNotGenerateError,
    DuplicateGeneratorError,
    GeneratingSetError,
    GroupError,
    MapError,
    PosetError,
    SizeLimitExceeded,
)
from .groups import (
    FiniteGroup,
    builtin_group,
    cyclic,
    dihedral,
    klein_four,
    quaternion8,
    standard_generator_labels,
    symmetric,
    validate_generating_set,
)
from .homotopy import (
    AutomorphismGroup,
    CoreResult,
    ExtensionCheck,
    HomotopyClasses,
    comparative_retractions,
    core,
    enumerate_selfmaps,
    extension_restriction_check,
    homotopy_classes,
)
from .labels import Base, FencePoint, SPoint, Star, TPoint, label_id, parse_label_id
from .posets import FinitePoset, PosetMap
from .report import CheckResult, VerificationReport
from .search import all_automorphisms, find_isomorphism
from .serialize import (
    export_dot,
    group_from_json,
    group_to_doc,
    poset_from_json,
    poset_to_doc,
    poset_to_json,
)
from .snf import SNFResult, smith_normal_form
from .spaces import (
    ConstructionSpec,
    GadgetMode,
    add_basepoint,
    attach_gadgets,
    build_base,
    build_space,
    collapse_map,
    expected_point_count,
    left_translation,
    spec_for,
)
from .verify import CHECK_NAMES, VerifyOptions, verify_all, verify_one

__version__ = "0.1.0"

__all__ = [
    "AutomorphismGroup",
    "Base",
    "CHECK_NAMES",
    "CheckResult",
    "ConstructionError",
    "ConstructionSpec",
    "ContainsIdentityError",
    "CoreResult",
    "CycleBasis",
    "DoesNotGenerateError",
    "DuplicateGeneratorError",
    "ExtensionCheck",
    "FencePoint",
    "FiniteGroup",
    "FinitePoset",
    "GadgetMode",
    "GeneratingSetError",
    "GroupError",
    "HomologySummary",
    "HomotopyClasses",
    "MapError",
    "OrderComplex",
    "PosetError",
    "PosetMap",
    "SNFResult",
    "SPoint",
    "SizeLimitExceeded",
    "Star",
    "TPoint",
    "VerificationReport",
    "VerifyOptions",
    "add_basepoint",
    "all_automorphisms",
    "attach_gadgets",
    "build_base",
    "build_space",
    "builtin_group",
    "collapse_map",
    "comparative_retractions",
    "core",
    "cycle_basis",
    "cyclic",
    "dihedral",
    "enumerate_selfmaps",
    "expected_point_count",
    "export_dot",
    "extension_restriction_check",
    "find_isomorphism",
    "group_from_json",
    "group_to_doc",
    "h1_action_ids",
    "h1_action_matrix",
    "homology_summary",
    "homotopy_classes",
    "klein_four",
    "label_id",
    "left_translation",
    "order_complex",
    "parse_label_id",
    "poset_from_json",
    "poset_to_doc",
    "poset_to_json",
    "quaternion8",
    "smith_normal_form",
    "spec_for",
    "standard_generator_labels",
    "symmetric",
    "validate_generating_set",
    "verify_all",
    "verify_one",
]
