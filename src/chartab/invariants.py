"""Exact counting and averaging of character degrees.

Every average is a fractions.Fraction: the theorems compare against
3/2, 4/3, 11/4, 16/5 with strict inequalities, so floating point would
corrupt exactly-attained boundary cases (A4 sits exactly at 3/2).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

from .arith import check_prime, prime_factors
from .chartable import CharTable
from .fields import FieldSpec, field_rows
from .fplinalg import require
from .permgroup import PermGroup


def pprime_rows(table: CharTable, rows, p: int) -> tuple[int, ...]:
    """The given rows of degree not divisible by the prime p."""
    check_prime(p)
    return tuple(r for r in rows if table.degrees[r] % p != 0)


def mean_degree(table: CharTable, rows) -> Fraction:
    """The exact average degree of the given rows."""
    return Fraction(sum(table.degrees[r] for r in rows), len(rows))


def selected_rows(table: CharTable, p: int | None, spec: FieldSpec) -> tuple[int, ...]:
    """Rows with p'-degree (no filter when p is None) and values in the field."""
    rows = field_rows(table, spec)
    return rows if p is None else pprime_rows(table, rows, p)


def irr_pprime(table: CharTable, p: int, spec: FieldSpec = FieldSpec.all()) -> tuple[int, ...]:
    """Rows of degree not divisible by p, restricted to the field."""
    rows = selected_rows(table, p, spec)
    require(rows[:1] == (0,), "the trivial character must be a p'-degree row")
    return rows

def degree_counts(table: CharTable, rows=None) -> dict[int, int]:
    """n_d: number of selected rows of each degree d."""
    if rows is None:
        rows = range(table.n_classes)
    return dict(sorted(Counter(table.degrees[r] for r in rows).items()))


def average_degree(table: CharTable, p: int | None, spec: FieldSpec) -> Fraction:
    """Average degree of the irreducible characters with values in the field
    and degree prime to p (every degree when p is None)."""
    return mean_degree(table, selected_rows(table, p, spec))


# -- kernels and normal structure ---------------------------------------------

def _kernels(table: CharTable) -> np.ndarray:
    """Boolean (k, k) mask whose row r is the set of classes in Ker(chi_r):
    chi(g) = chi(1) iff g is in the kernel, and cells hold each exact value
    once.  Every normal subgroup of G is an intersection of these kernels.

    Each kernel is a normal subgroup, so its order, the sum of its class
    sizes, must divide |G|: a table that fails raises InconsistentTable
    rather than give a wrong conclusion."""
    ker = table.cells == table.cells[:, :1]
    sizes = np.array(table.class_data.sizes, dtype=np.int64)
    require(not (sizes.sum() % (ker @ sizes)).any(), "a kernel's order must divide |G|")
    return ker


def _classes_meeting(table: CharTable, n: PermGroup) -> np.ndarray:
    """Boolean mask of the classes that meet N."""
    cd = table.class_data
    return np.bincount(cd.lookup(n.element_rows()[:, cd.index.base]), minlength=len(cd)) > 0


def kernel_contains(table: CharTable, row: int, n: PermGroup) -> bool:
    """Is N inside Ker(chi_row)?"""
    return bool(_kernels(table)[row, _classes_meeting(table, n)].all())


def relative_rows(table: CharTable, n: PermGroup) -> tuple[int, ...]:
    """Irr(G|N): rows whose kernel does not contain N."""
    table.group.check_normal(n)
    inside = _kernels(table)[:, _classes_meeting(table, n)].all(axis=1)
    return tuple(np.flatnonzero(~inside).tolist())


def n_d_relative(table: CharTable, n: PermGroup, d: int) -> int:
    return sum(1 for r in relative_rows(table, n) if table.degrees[r] == d)


def has_normal_p_complement(table: CharTable, p: int) -> bool:
    """Does G have a normal p-complement?  Let S be the classes of element
    order prime to p.  A normal p-complement K holds every p'-element g (gK
    has p-power order in G/K and order prime to p), so K = S, and K is the
    intersection of the kernels that contain it.  Conversely, if S is that
    intersection, it is a normal subgroup of p'-elements, and G/S is a
    p-group because the p'-part of every element lies in S."""
    check_prime(p)
    ker = _kernels(table)
    s = np.array([m % p != 0 for m in table.class_data.element_orders])
    over_s = ker[(ker | ~s).all(axis=1)]    # the kernels containing S
    return bool((over_s.all(axis=0) == s).all())


def is_solvable(table: CharTable) -> bool:
    """Is G solvable?  Walks one chief series down from N = G: every
    G-normal subgroup properly inside N is an intersection of sets
    Ker(chi) & N, at least one of them proper in N, so the largest proper
    such set is a maximal G-normal subgroup M of N.  G is solvable iff
    every chief factor N/M has prime-power order."""
    ker = _kernels(table)
    sizes = np.array(table.class_data.sizes, dtype=np.int64)
    n = np.ones(len(sizes), dtype=bool)
    n_order = int(sizes.sum())
    while n_order > 1:
        inside = ker & n
        orders = inside @ sizes
        orders[orders == n_order] = 0       # N itself
        m = int(orders.argmax())
        require(orders[m] > 0 and n_order % orders[m] == 0,
                "the kernels must cut N down to a normal subgroup")
        if len(prime_factors(n_order // int(orders[m]))) > 1:
            return False
        n, n_order = inside[m], int(orders[m])
    return True


# -- averages over a fixed central character -----------------------------------

def central_linear_characters(table: CharTable, z: PermGroup) -> list[dict]:
    """All linear characters of a cyclic central subgroup Z.

    Each character is a map element -> exponent l, meaning the value
    zeta_e^l with e the ambient exponent.
    """
    if not table.group.is_central_subgroup(z):
        raise ValueError("subgroup is not central")
    elems = z.elements()
    m = len(elems)
    gen = next((x for x in sorted(elems) if x.order() == m), None)
    if gen is None:
        raise ValueError("central subgroup is not cyclic")
    e = table.q_field.exponent
    require(e % m == 0, "|Z| must divide the exponent of G")
    out = []
    for c in range(m):
        lam = {}
        x = table.group.identity()
        for k in range(m):
            lam[x] = (c * k * (e // m)) % e
            x = x * gen
        out.append(lam)
    return out


def acd_pprime_over_central(table: CharTable, z: PermGroup, lam: dict,
                            p: int) -> Fraction:
    """Average p'-degree over rows restricting to Z as degree * lambda.

    lam maps each element of Z to the exponent of its value as a power of
    zeta_e.  Z must be central; lam must be a homomorphism.
    """
    check_prime(p)
    if not table.group.is_central_subgroup(z):
        raise ValueError("subgroup is not central")
    elems = z.elements()
    e = table.q_field.exponent
    if set(lam) != set(elems):
        raise ValueError("value pattern must cover exactly the elements of Z")
    if any((lam[a] + lam[b] - lam[a * b]) % e for a in elems for b in elems):
        raise ValueError("value pattern is not a homomorphism")
    cd = table.class_data
    classes = cd.lookup(z.element_rows()[:, cd.index.base]).tolist()   # in the order of elems
    require(all(cd.sizes[j] == 1 for j in classes),
            "central elements must sit in singleton classes")
    exps = [lam[x] % e for x in elems]
    rows = pprime_rows(table, range(table.n_classes), p)
    # per degree d, the index of each value d * lambda(x), -1 if no cell takes it
    over = {d: [table.value_index(((t, d),)) for t in exps]
            for d in {table.degrees[r] for r in rows}}
    matching = [r for r in rows if (table.cells[r, classes] == over[table.degrees[r]]).all()]
    if not matching:
        raise ValueError("no p'-degree rows lie over the given central character")
    return mean_degree(table, matching)
