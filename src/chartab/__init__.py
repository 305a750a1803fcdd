"""Exact character tables of finite permutation groups and the average
p'-degree invariants built on them."""

from .chartable import (CharTable, WorkingField, class_matrix, compute_table,
                        format_table, select_prime, table_document,
                        verify_orthogonality)
from .fields import FieldSpec, field_rows, galois_image_row
from .fplinalg import InconsistentTable
from .groupspec import (GroupExprError, construct, construct_cached,
                        parse_group_expr, render)
from .harness import (THEOREM_CATALOG, check_central_product, check_group,
                      default_primes, fuzz_lemmas, parse_corpus,
                      sharpness_scan, verify_corpus)
from .invariants import (acd_pprime_over_central, average_degree, central_linear_characters,
                         degree_counts, irr_pprime, n_d_relative, relative_rows)
from .perm import Permutation, parse_cycles
from .permgroup import (DEFAULT_ENUM_CAP, ClassData, DenseCapExceeded,
                        NotNormal, PermGroup, direct_product)

__version__ = "0.1.0"

__all__ = [
    "CharTable", "ClassData", "DEFAULT_ENUM_CAP", "DenseCapExceeded",
    "FieldSpec", "GroupExprError", "InconsistentTable", "NotNormal",
    "PermGroup", "Permutation", "THEOREM_CATALOG", "WorkingField",
    "acd_pprime_over_central", "average_degree", "central_linear_characters",
    "check_central_product", "check_group", "class_matrix", "compute_table",
    "construct", "construct_cached", "default_primes", "degree_counts",
    "direct_product", "field_rows", "format_table", "fuzz_lemmas",
    "galois_image_row", "irr_pprime", "n_d_relative", "parse_corpus",
    "parse_cycles", "parse_group_expr", "relative_rows", "render",
    "select_prime", "sharpness_scan", "table_document", "verify_corpus",
    "verify_orthogonality",
]
