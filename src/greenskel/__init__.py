"""Green's class orders, subduction skeletons, and the maps between them."""

from .core import (
    DomainMismatchError,
    NotClosedError,
    ResourceLimitError,
    StateSubset,
    Transformation,
    TransformationSemigroup,
    apply_mask,
)
from .green import ConsistencyError, EggBox, d_classes, eggboxes, green_poset, green_preorder
from .maps import DiagramReport, im_bar, im_bar_S, verify_diagram
from .morphisms import (
    AdmissiblePartition,
    FunctorialityReport,
    TsMorphism,
    admissible_partitions,
    functoriality_check,
    quotient_ts,
    validate,
)
from .order import (
    ClassPoset,
    InducedMap,
    MalformedPreorderError,
    NotAMorphismError,
    Preorder,
    lattice_violation,
    poset_isomorphic,
)
from .regrep import CorollaryReport, RegRep, corollary_check, right_regular
from .skeleton import (
    ImageSet,
    extended_image_set,
    image_set,
    inclusion_poset,
    inclusion_preorder,
    skeleton_poset,
    subduction_preorder,
)

__all__ = [
    "AdmissiblePartition",
    "ClassPoset",
    "ConsistencyError",
    "CorollaryReport",
    "DiagramReport",
    "DomainMismatchError",
    "EggBox",
    "FunctorialityReport",
    "ImageSet",
    "InducedMap",
    "MalformedPreorderError",
    "NotAMorphismError",
    "NotClosedError",
    "Preorder",
    "RegRep",
    "ResourceLimitError",
    "StateSubset",
    "Transformation",
    "TransformationSemigroup",
    "TsMorphism",
    "admissible_partitions",
    "apply_mask",
    "corollary_check",
    "d_classes",
    "eggboxes",
    "extended_image_set",
    "functoriality_check",
    "green_poset",
    "green_preorder",
    "im_bar",
    "im_bar_S",
    "image_set",
    "inclusion_poset",
    "inclusion_preorder",
    "lattice_violation",
    "poset_isomorphic",
    "quotient_ts",
    "right_regular",
    "skeleton_poset",
    "subduction_preorder",
    "validate",
    "verify_diagram",
]

__version__ = "0.1.0"
