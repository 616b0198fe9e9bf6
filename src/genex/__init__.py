"""Finite permutation-group engine and verification workbench."""

from .perm import Permutation, format_cycles, parse_permutation
from .group import (
    BoundExceeded,
    Group,
    Homomorphism,
    coset_action,
    direct_product,
    trivial_group,
    wreath_product,
)

__all__ = [
    "Permutation",
    "parse_permutation",
    "format_cycles",
    "Group",
    "trivial_group",
    "BoundExceeded",
    "Homomorphism",
    "coset_action",
    "direct_product",
    "wreath_product",
]
