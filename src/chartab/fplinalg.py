"""Exact linear algebra over the prime field F_q on numpy int64 arrays.

All arrays hold canonical representatives in [0, q).  mat_mul is the one
place floats appear: when (q-1)**2 times the inner dimension is below
2**53, every partial sum of a product is an integer that a float64 holds
exactly, so it multiplies on BLAS doubles and reduces with an exact fmod
(the FFLAS-FFPACK method).  Larger products take an exact Python-int path.

Eigenvectors are found one vector at a time: eig_split_rows splits a row
into its eigen-components under a matrix from the minimal polynomial of
its Krylov rows, with no characteristic polynomial or nullspace.
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


def mat_mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q as int64, for integer or float64 operands with entries
    in [0, q); a may be stacked (1-D, 2-D or 3-D)."""
    if (q - 1) * (q - 1) * a.shape[-1] < 2 ** 53:
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

    The Krylov rows w, w at, w at^2, ... are grown by doubling their
    number until one depends on those before it.  The rref of the
    transposed block then has pivots 0..r-1, and its column r gives the
    monic minimal polynomial p of w.  p must have r distinct roots in F_q
    (the action on the span of the Krylov rows is diagonalizable); the
    component of w for root lam is, up to a nonzero factor,
    w (p/(x - lam))(at).
    """
    rows = [w % q]
    while True:
        # at most len(w) + 1 rows, which are always dependent
        for _ in range(min(len(rows), len(w) + 1 - len(rows))):
            rows.append(mat_mul(rows[-1], at, q))
        krylov = np.array(rows)
        red, pivots = rref(krylov.T, q)
        r = len(pivots)
        if r < len(krylov):
            break
    minpoly = np.append(-red[:, r] % q, 1)       # ascending, monic
    roots = poly_roots(minpoly, q)
    require(len(roots) == r, "restricted action must be diagonalizable")
    # row i: coefficients of p(x) / (x - root_i), by synthetic division
    lams = np.array(roots, dtype=np.int64)
    quot = np.zeros((r, r), dtype=np.int64)
    quot[:, r - 1] = 1
    for d in range(r - 1, 0, -1):
        quot[:, d - 1] = (minpoly[d] + lams * quot[:, d]) % q
    return mat_mul(quot, krylov[:r], q)
