"""Exact sums of roots of unity.

A value in Z[zeta_e] is stored sparsely as a tuple of (exponent,
multiplicity) pairs, sorted by exponent — the eigenvalue multiplicities of
a representation matrix, which makes equality of stored values canonical
tuple equality.  Equality of *derived* sums against an integer goes
through reduction modulo the e-th cyclotomic polynomial, in exact integer
arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fplinalg import require

RootSum = tuple[tuple[int, int], ...]


def render(v: RootSum) -> str:
    """Human form "m*z^l + ...", with z a primitive e-th root of unity."""
    if not v:
        return "0"
    terms = []
    for l, m in v:
        if l == 0:
            terms.append(str(m))
        elif m == 1:
            terms.append(f"z^{l}")
        else:
            terms.append(f"{m}*z^{l}")
    return " + ".join(terms)


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        coeff = num[k + len(den) - 1]
        require(coeff % den[-1] == 0, "polynomial division must be exact")
        c = coeff // den[-1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    require(not any(num), "polynomial division must leave no remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, ascending; computed from x^e - 1 by division."""
    if e == 1:
        return (-1, 1)
    num = [0] * (e + 1)
    num[0], num[e] = -1, 1
    for d in range(1, e):
        if e % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def reduction_table(e: int) -> np.ndarray:
    """Row l = coefficients of x^l mod Phi_e, shape (e, phi(e))."""
    phi = cyclotomic_poly(e)
    deg = len(phi) - 1
    # x^deg = -(phi[0] + phi[1] x + ... + phi[deg-1] x^{deg-1})
    top = np.array([-c for c in phi[:deg]], dtype=np.int64)
    table = np.zeros((e, deg), dtype=np.int64)
    row = np.zeros(deg, dtype=np.int64)
    row[0] = 1
    for l in range(e):
        table[l] = row
        lead = row[deg - 1]
        row = np.roll(row, 1)
        row[0] = 0
        if lead:
            row = row + lead * top
    return table

