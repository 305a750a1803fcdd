"""Fields of character values via the Galois action on table rows.

For k coprime to the exponent e, sigma_k sends chi to the character
g -> chi(g^k); a row has values in Q iff it is fixed by every sigma_k, in
R iff fixed by sigma_{e-1}, and in Q_p = Q(zeta_p) iff fixed by every
sigma_k with k = 1 (mod p) when p | e (when p does not divide e this
degenerates to the rational test, since Q(zeta_p) meets Q(zeta_e) in Q).
A row fixed by generators of such a group of k is fixed by all of it, so
only the generators (arith.unit_generators) are tested.  Rows are
compared exactly, through the indices of their values (CharTable.cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import check_prime, unit_generators
from .chartable import CharTable
from .fplinalg import require


@dataclass(frozen=True)
class FieldSpec:
    kind: str                  # "all" | "rational" | "real" | "cyclotomic"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("all", "rational", "real", "cyclotomic"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "cyclotomic":
            if self.p is None:
                raise ValueError("CyclotomicP needs a prime p")
            check_prime(self.p)
        elif self.p is not None:
            raise ValueError(f"field kind {self.kind!r} takes no prime")

    @staticmethod
    def all() -> "FieldSpec":
        return FieldSpec("all")

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec("rational")

    @staticmethod
    def real() -> "FieldSpec":
        return FieldSpec("real")

    @staticmethod
    def cyclotomic(p: int) -> "FieldSpec":
        return FieldSpec("cyclotomic", p)

    def label(self) -> str:
        return {"all": "C", "rational": "Q", "real": "R",
                "cyclotomic": f"Q{self.p}"}[self.kind]


def field_from_label(label: str, p: int | None = None) -> FieldSpec:
    """CLI names: C (all), Q, R, Qp (needs --prime)."""
    if label == "C":
        return FieldSpec.all()
    if label == "Q":
        return FieldSpec.rational()
    if label == "R":
        return FieldSpec.real()
    if label == "Qp":
        if p is None:
            raise ValueError("field Qp needs a prime")
        return FieldSpec.cyclotomic(p)
    raise ValueError(f"unknown field label {label!r} (expected Q, Qp, R or C)")


def galois_image_row(table: CharTable, row: int, k: int) -> int:
    """Index of the row sigma_k(chi_row); k must be coprime to the exponent."""
    e = table.q_field.exponent
    if gcd(k, e) != 1:
        raise ValueError(f"k={k} is not coprime to the exponent {e}")
    c = table.cells
    matches = np.flatnonzero(np.all(c == c[row][table.class_data.power_classes(k)], axis=1))
    require(len(matches) == 1, "Galois action did not permute the rows")
    return int(matches[0])


def field_rows(table: CharTable, spec: FieldSpec) -> tuple[int, ...]:
    """Row indices whose values lie in the field; always contains row 0."""
    kind = spec.kind
    k = table.n_classes
    if kind == "all":
        return tuple(range(k))
    e = table.q_field.exponent
    if kind == "rational":
        ks = unit_generators(e)
    elif kind == "real":
        ks = [e - 1]
    else:
        if e % spec.p != 0:
            return field_rows(table, FieldSpec.rational())
        ks = unit_generators(e, spec.p)
    mask = np.ones(k, dtype=bool)
    for kk in ks:
        mask &= table.galois_fixed(kk)
    rows = tuple(int(r) for r in np.nonzero(mask)[0])
    require(0 in rows, "the trivial character must lie in every field")
    return rows


def field_labels(table: CharTable, primes) -> list[str]:
    """Per row, the smallest detected field among Q, R, Qp (given primes), C.

    Rational rows read "Q"; other rows list each of R, Qp holding their
    values ("R,Q5"), or "C" when none does.
    """
    rational = set(field_rows(table, FieldSpec.rational()))
    specs = [FieldSpec.real()] + [FieldSpec.cyclotomic(p) for p in primes]
    others = [(spec.label(), set(field_rows(table, spec))) for spec in specs]
    return ["Q" if r in rational
            else ",".join(label for label, rows in others if r in rows) or "C"
            for r in range(table.n_classes)]
