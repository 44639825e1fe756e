"""Sheaves on finite posets: simplification and exact cohomology."""

__version__ = "0.1.0"

from .exact_linalg import GF, QQ, ZZ, Matrix, SmithForm, compose, kernel_basis, rank, smith_normal_form
from .poset import OrderComplex, Poset, build_poset, leq, order_complex
from .sheaf import Sheaf, SheavedSpace, check_commutativity, constant_sheaf, restrict
from .cohomology import (
    CochainComplex,
    HomologyResult,
    field_cohomology,
    integral_homology,
    is_acyclic,
    reduce_homology,
    roos_complex,
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
    sheaf_cohomology,
    simplify_pipeline,
)
