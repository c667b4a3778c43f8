"""Exact valued-field towers.

Valued fields with exact arithmetic, the level-indexed coset algebras
they project onto, min-based extended-value arithmetic as the common
target of all valuations, and the reconstruction of a field's completion
as coherent families of classes, cross-checked against independent digit
and series oracles.
"""

from .oag import (
    INF,
    GroupElement,
    TropSet,
    as_value,
    group_add,
    group_cmp,
    group_neg,
    order_from_hyperadd,
    trop_hyperadd,
    trop_member,
    trop_translate,
)
from .basefields import (
    Approximation,
    CauchyWitness,
    FpPoly,
    PadicRationals,
    QuadElement,
    QuadraticExtension,
    RatFunc,
    RationalFunctions,
    ValuedField,
    hensel_sqrt,
    is_cauchy,
    make_field,
)
from .cosets import (
    GammaCoset,
    HyperSum,
    IteratedResult,
    canonical_key,
    coset_eq,
    coset_inv,
    coset_mul,
    coset_neg,
    coset_of,
    coset_value,
    hyperadd,
    hypersum_contains,
    hypersum_same_set,
    hypersum_value_set,
    iterated_contains,
)
from .tower import (
    CosetCarrier,
    LawReport,
    LevelPair,
    TropCarrier,
    check_hom_law,
    check_projection_containment,
    check_slice_triangles,
    cone_over_diagram,
    project,
)
from .limit import (
    CoherenceError,
    CoherentElement,
    EqResult,
    PrecisionError,
    PrecisionLedger,
    RepresentativeFinder,
    check_singlevalued,
    check_universal_property,
    from_cosets,
    from_field,
    hensel_finder,
    limit_arith,
    limit_eq,
    rebuild_from_digits,
    sigma_embed,
    to_approximation,
    zero_element,
)

__version__ = "0.1.0"
