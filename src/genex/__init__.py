"""Finite permutation-group engine and verification workbench."""

from .perm import Permutation, element_order_r_part, format_cycles, parse_permutation
from .group import (
    BoundExceeded,
    Group,
    Homomorphism,
    coset_action,
    direct_product,
    quotient,
    trivial_group,
    wreath_product,
)

__all__ = [
    "Permutation",
    "parse_permutation",
    "format_cycles",
    "element_order_r_part",
    "Group",
    "trivial_group",
    "BoundExceeded",
    "Homomorphism",
    "coset_action",
    "quotient",
    "direct_product",
    "wreath_product",
]
