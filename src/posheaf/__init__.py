"""Sheaves on finite posets: simplification and exact cohomology."""

__version__ = "0.1.0"

from .exact_linalg import GF, QQ, ZZ, Matrix, SmithForm, compose, kernel_basis, rank, smith_normal_form
from .poset import (
    OrderComplex,
    Poset,
    build_poset,
    downset,
    leq,
    order_complex,
    posets_isomorphic,
    remove_element,
    upset,
)
from .sheaf import (
    SectionSpace,
    Sheaf,
    SheavedSpace,
    ceil_sheaf,
    check_commutativity,
    constant_sheaf,
    global_sections,
    ideal_sheaf,
    pullback,
    restrict,
    skyscraper_sheaf,
    strict_down_sheaf,
)
from .cohomology import (
    CochainComplex,
    HomologyResult,
    field_cohomology,
    integral_homology,
    is_acyclic,
    reduce_homology,
    roos_complex,
    sheaf_cohomology,
    sheaf_complex,
    simplicial_cochain_complex,
)
from .simplify import (
    BeatReport,
    SimplificationTrace,
    collapse_beat,
    core,
    find_beats,
    remove_acyclic_downset,
    removable_by_acyclic_downset,
    removable_by_acyclic_upset,
    simplify_pipeline,
)
