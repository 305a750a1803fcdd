"""Exact linear algebra over the prime field F_q on numpy int64 arrays.

All arrays hold canonical representatives in [0, q).  mat_mul is the one
place floats appear: when (q-1)**2 times the inner dimension is below
2**53, every partial sum of a product is an integer that a float64 holds
exactly, so it multiplies on BLAS doubles and reduces with an exact fmod
(the FFLAS-FFPACK method).  Larger products take an exact Python-int path.

Eigenvectors are found one vector at a time: eig_split_rows splits a row
into its eigen-components under a matrix from the minimal polynomial of
its Krylov rows, with no characteristic polynomial or nullspace.  Each
Krylov row is reduced once, as it is grown, against one array holding the
reduced rows and their transforms; rref is kept for callers that reduce a
whole block.
"""

from __future__ import annotations

import numpy as np


class InconsistentTable(RuntimeError):
    """A self-consistency check of the computation failed.

    This signals a defect in the computation, never bad input.  The checks
    raise it instead of using assert, so they also run under python -O.
    """


def require(ok: bool, message: str) -> None:
    if not ok:
        raise InconsistentTable(message)


def float_exact(q: int, inner: int) -> bool:
    """Whether float64 holds exactly every sum of inner products of entries
    in [0, q), and so every single product of them."""
    return (q - 1) * (q - 1) * inner < 2 ** 53


def mat_mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q as int64, for integer or float64 operands with entries
    in [0, q); a may be stacked (1-D, 2-D or 3-D)."""
    if float_exact(q, a.shape[-1]):
        prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
        return np.fmod(prod, q, out=prod).astype(np.int64)
    prod = a.astype(np.int64).astype(object) @ b.astype(np.int64).astype(object)
    return np.asarray(prod % q, dtype=np.int64)


def inv_mod(x: int, q: int) -> int:
    return pow(int(x), -1, q)


def rref(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    m = a.copy() % q
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pivot_row = r + int(nz[0])
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        m[r] = (m[r] * inv_mod(m[r, c], q)) % q
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % q
        pivots.append(c)
        r += 1
    return m[:r], pivots


def poly_roots(coeffs: np.ndarray, q: int) -> list[int]:
    """All roots in F_q, ascending, by evaluation at every field point."""
    lams = np.arange(q, dtype=np.int64)
    vals = np.zeros(q, dtype=np.int64)
    for c in coeffs[::-1]:
        vals = (vals * lams + int(c)) % q
    return [int(x) for x in np.nonzero(vals == 0)[0]]


def eig_split_rows(w: np.ndarray, at: np.ndarray, q: int) -> np.ndarray:
    """One nonzero multiple of each eigen-component of the row w under the
    right action x -> x @ at, as rows by ascending eigenvalue.

    The Krylov rows w, w at, w at^2, ... are grown one at a time, and each
    is reduced at once against those before it.  One array holds the
    reduced rows in reduced row echelon form, each next to its transform:
    the coefficients of the Krylov rows it is made of.  The first row that
    reduces to zero, the r-th, carries in its transform the relation that
    makes it depend on the rows before it: the monic minimal polynomial p
    of w, of degree r.  p must have r distinct roots in F_q (the action on
    the span of the Krylov rows is diagonalizable); the component of w
    for root lam is, up to a nonzero factor, w (p/(x - lam))(at).
    """
    n = len(w)
    krylov = np.empty((n + 1, n), dtype=np.int64)
    krylov[0] = w % q
    # row i: reduced row i in columns :n, its transform in columns n:
    red = np.zeros((n, 2 * n + 1), dtype=np.int64)
    pivots = np.empty(n, dtype=np.intp)
    # at most n + 1 rows, which are always dependent
    for r in range(n + 1):
        if r:
            krylov[r] = mat_mul(krylov[r - 1], at, q)
        width = n + r + 1
        row = np.zeros(width, dtype=np.int64)
        row[:n] = krylov[r]
        row[width - 1] = 1
        if r:
            row -= mat_mul(krylov[r, pivots[:r]], red[:r, :width], q)
            row %= q
        nonzero = np.flatnonzero(row[:n])
        if not nonzero.size:
            break
        c = pivots[r] = nonzero[0]
        row *= inv_mod(row[c], q)
        row %= q
        # clear column c in the rows that have it
        rows = np.flatnonzero(red[:r, c])
        if rows.size:
            red[rows, :width] = (red[rows, :width] - np.outer(red[rows, c], row)) % q
        red[r, :width] = row
    minpoly = row[n:]                               # ascending, monic
    roots = poly_roots(minpoly, q)
    require(len(roots) == r, "restricted action must be diagonalizable")
    # row i: coefficients of p(x) / (x - root_i), by synthetic division
    lams = np.array(roots, dtype=np.int64)
    quot = np.zeros((r, r), dtype=np.int64)
    quot[:, r - 1] = 1
    for d in range(r - 1, 0, -1):
        quot[:, d - 1] = (minpoly[d] + lams * quot[:, d]) % q
    return mat_mul(quot, krylov[:r], q)
