"""Exact linear algebra over the prime field F_q on numpy int64 arrays.

All arrays hold canonical representatives in [0, q).  q*q times the inner
dimension must stay below 2**63 for the fast matmul path; a Python-int
fallback covers the (never hit in practice) overflow case.
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
    inner = a.shape[-1]
    if (q - 1) * (q - 1) * inner < 2 ** 63:
        return (a @ b) % q
    ao = a.astype(object)
    bo = b.astype(object)
    return np.asarray((ao @ bo) % q, dtype=np.int64)


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


def nullspace(a: np.ndarray, q: int) -> np.ndarray:
    """Row basis of {x : a @ x = 0}, one row per free column of rref(a), not reduced."""
    red, pivots = rref(a, q)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-red[r, fc]) % q
    return basis


def hessenberg(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper Hessenberg form h similar to a, by row/column elimination.

    Also returns Qinv with a = Qinv @ h @ Qinv^-1, so eigenvectors of h
    map back through Qinv.
    """
    h = a.copy() % q
    n = h.shape[0]
    qinv = np.eye(n, dtype=np.int64)
    for c in range(n - 2):
        nz = np.nonzero(h[c + 1:, c])[0]
        if nz.size == 0:
            continue
        p = c + 1 + int(nz[0])
        if p != c + 1:
            h[[c + 1, p]] = h[[p, c + 1]]
            h[:, [c + 1, p]] = h[:, [p, c + 1]]
            qinv[:, [c + 1, p]] = qinv[:, [p, c + 1]]
        inv = inv_mod(h[c + 1, c], q)
        rows = np.nonzero(h[c + 2:, c])[0] + c + 2
        if rows.size:
            factors = (h[rows, c] * inv) % q
            h[rows] = (h[rows] - np.outer(factors, h[c + 1])) % q
            # inverse column operation keeps similarity
            h[:, c + 1] = (h[:, c + 1] + h[:, rows] @ factors) % q
            qinv[:, c + 1] = (qinv[:, c + 1] + qinv[:, rows] @ factors) % q
    return h, qinv


def charpoly_hessenberg(h: np.ndarray, q: int) -> np.ndarray:
    """Characteristic polynomial of an upper Hessenberg matrix, ascending."""
    n = h.shape[0]
    # p_m = (x - h[m-1,m-1]) p_{m-1} - sum_i h[i-1,m-1] (prod beta) p_{i-1}
    polys = [np.array([1], dtype=np.int64)]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = np.zeros(m + 1, dtype=np.int64)
        cur[1:m + 1] = prev
        cur[:m] = (cur[:m] - h[m - 1, m - 1] * prev) % q
        cur %= q
        beta = 1
        for i in range(m - 1, 0, -1):
            beta = (beta * int(h[i, i - 1])) % q
            coeff = (int(h[i - 1, m - 1]) * beta) % q
            if coeff:
                cur[:i] = (cur[:i] - coeff * polys[i - 1]) % q
        polys.append(cur % q)
    return polys[n]


def poly_roots(coeffs: np.ndarray, q: int) -> list[int]:
    """All roots in F_q, ascending, by evaluation at every field point."""
    lams = np.arange(q, dtype=np.int64)
    vals = np.zeros(q, dtype=np.int64)
    for c in coeffs[::-1]:
        vals = (vals * lams + int(c)) % q
    return [int(x) for x in np.nonzero(vals == 0)[0]]


def eig_split_rows(a: np.ndarray, q: int) -> list[np.ndarray]:
    """Split row space by the right action c -> c @ a.

    Returns one row basis per eigenvalue of a, by ascending eigenvalue:
    a basis of the nullspace of a.T - lam, not reduced.  When the
    Hessenberg form of a.T is unreduced (every eigenspace is then
    one-dimensional) the eigenvectors come from an O(n^2)-per-eigenvalue
    back-substitution instead of one elimination per eigenvalue.
    """
    at = a.T % q
    n = a.shape[0]
    h, qinv = hessenberg(at, q)
    roots = poly_roots(charpoly_hessenberg(h, q), q)
    if n > 1 and roots and np.all(np.diagonal(h, -1) % q):
        return _eig_unreduced(h, qinv, roots, q)
    out = []
    for lam in roots:
        m = (at - lam * np.eye(n, dtype=np.int64)) % q
        basis = nullspace(m, q)
        if basis.shape[0]:
            out.append(basis)
    return out


def _eig_unreduced(h: np.ndarray, qinv: np.ndarray, roots: list[int],
                   q: int) -> list[np.ndarray]:
    n = h.shape[0]
    lams = np.array(roots, dtype=np.int64)
    v = np.zeros((n, len(roots)), dtype=np.int64)
    v[n - 1] = 1
    for m in range(n - 1, 0, -1):
        # row m of (h - lam I) v = 0 solved for v[m-1]
        acc = (mat_mul(h[m, m:], v[m:], q) - lams * v[m]) % q
        v[m - 1] = (-acc * inv_mod(h[m, m - 1], q)) % q
    top = (h[0, :] @ v - lams * v[0]) % q
    require(not np.any(top), "back-substitution produced a non-eigenvector")
    return [col[None, :] for col in mat_mul(qinv, v, q).T]
