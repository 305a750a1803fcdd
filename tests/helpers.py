"""Independent oracles used by the test suite.

These deliberately avoid the library's own computation paths: brute-force
enumeration, naive closure loops, complex-float diagonalization, and a
word-tracking construction of abelian duals.
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import random
import re
from collections import deque
from functools import lru_cache
from itertools import combinations, product
from math import isqrt, prod

import numpy as np

from chartab import PermGroup, Permutation, construct_cached
from chartab.chartable import class_matrix, compute_table
from chartab.fplinalg import InconsistentTable, eig_split_rows


# the groups of the benchmark's tables workload
TABLES_GROUPS = ("A(5)", "S(7)", "A(8)", "SL(2,9)", "D(200)",
                 "C(2) x C(2) x C(2) x C(2) x C(2) x C(2) x C(2)", "C(200)")


@lru_cache(maxsize=None)
def table_of(expr: str):
    return compute_table(construct_cached(expr))


def relabel(group: PermGroup, seed: int) -> PermGroup:
    """The group conjugated by a seeded permutation of its points."""
    n = group.degree
    sigma = list(range(n))
    random.Random(seed).shuffle(sigma)
    gens = []
    for g in group.generators:
        images = [0] * n
        for x, y in enumerate(g.images):
            images[sigma[x]] = sigma[y]
        gens.append(Permutation(images))
    return PermGroup(gens, n)


# -- brute-force group theory ---------------------------------------------------

def brute_conjugacy_sizes(group: PermGroup) -> list[int]:
    """Class sizes by pairwise conjugation over the full element list."""
    elems = list(group.elements())
    remaining = set(elems)
    sizes = []
    while remaining:
        x = next(iter(remaining))
        orbit = {g.inverse() * x * g for g in elems}
        assert orbit <= remaining
        remaining -= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def brute_mulclose(gens) -> frozenset:
    if not gens:
        return frozenset()
    ident = Permutation.identity(next(iter(gens)).degree)
    out = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(out)


def count_permutations(monkeypatch) -> list:
    """A list that grows by one for each Permutation made while monkeypatch
    holds, checked or not: each one sets its images once, through the slot
    descriptor this wraps."""
    slot = Permutation.images
    made = []

    class Counted:
        def __get__(self, obj, cls=None):
            return slot.__get__(obj, cls)

        def __set__(self, obj, value):
            made.append(None)
            slot.__set__(obj, value)

    monkeypatch.setattr(Permutation, "images", Counted())
    return made


def product_sift(chain, g: Permutation, start: int = 0) -> tuple[Permutation, int]:
    """perm.sift through a chain by one Permutation product per level, each
    composed as tuple(q[x] for x in p) with q a coset-table row read as a
    list: (residue, stuck level)."""
    for i in range(start, len(chain.levels)):
        lvl = chain.levels[i]
        img = g.images[lvl.point]
        if img not in lvl.transversal:
            return g, i
        q = lvl.table[lvl.transversal[img]].tolist()
        g = Permutation(tuple(q[x] for x in g.images))
    return g, len(chain.levels)


def chain_hash(chain) -> str:
    """sha256 over each level's base point, strong generators, sorted coset
    table images and sorted tree edges: equal hashes mean equal chains."""
    digest = hashlib.sha256()
    for lvl in chain.levels:
        digest.update(repr((lvl.point, [tuple(s.tolist()) for s in lvl.images],
                            sorted(tuple(v) for v in lvl.table.tolist()),
                            sorted(lvl.tree_edges))).encode())
    return digest.hexdigest()[:16]


def class_hash(group: PermGroup) -> str:
    """sha256 over the class sizes, element orders, power maps and every
    class matrix, in class order: equal hashes mean equal class data."""
    cd = group.conjugacy_classes()
    digest = hashlib.sha256(repr((cd.sizes, cd.element_orders)).encode())
    for j, m in enumerate(cd.element_orders):
        digest.update(np.asarray(cd.power_table[j, :m], dtype=np.int64).tobytes() + b";")
    for i in range(len(cd.sizes)):
        digest.update(np.ascontiguousarray(class_matrix(cd, i), dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def brute_normal_closure(group: PermGroup, seeds) -> frozenset:
    """Close under products and conjugation by all group elements."""
    elems = group.elements()
    current = brute_mulclose(set(seeds)) or frozenset({group.identity()})
    while True:
        conj = {g.inverse() * s * g for s in current for g in elems}
        if conj <= current:
            return current
        current = brute_mulclose(current | conj)


def brute_has_normal_p_complement(group: PermGroup, p: int) -> bool:
    """G has a normal p-complement iff its p'-elements (order prime to p)
    number |G|_{p'} and are closed under products.

    A normal p-complement K contains every p'-element g: gK has p-power
    order in G/K and order prime to p, so gK = K.  Conversely, a
    product-closed set of |G|_{p'} p'-elements is a subgroup, and as a
    union of classes it is normal.
    """
    elems = brute_mulclose(group.generators) or {group.identity()}
    target = len(elems)
    while target % p == 0:
        target //= p
    p_prime = {g for g in elems if g.order() % p}
    return len(p_prime) == target and all(x * y in p_prime for x in p_prime for y in p_prime)


def normal_closure(group: PermGroup, seeds) -> PermGroup:
    """Smallest normal subgroup of the group containing the seed elements:
    a seed or conjugate not yet in the closure joins its generators, and
    its conjugates by the group's generators are queued."""
    seeds = [s for s in seeds if not s.is_identity()]
    for s in seeds:
        if s not in group:
            raise ValueError("seed element lies outside the group")
    closure = group.subgroup([])
    todo = deque(seeds)
    while todo:
        x = todo.popleft()
        if x not in closure:
            closure = group.subgroup([*closure.generators, x])
            todo.extend(x.conjugate(g) for g in group.generators)
    return closure


def derived_subgroup(group: PermGroup) -> PermGroup:
    """G', the normal closure of the commutators of generator pairs."""
    return normal_closure(group, (a.inverse() * b.inverse() * a * b
                                  for a, b in combinations(group.generators, 2)))


def derived_series(group: PermGroup) -> list[PermGroup]:
    """G, G', G'', ... down to the first term equal to the one before it."""
    series = [group]
    while series[-1].generators:
        nxt = derived_subgroup(series[-1])
        if nxt.order() == series[-1].order():
            break
        series.append(nxt)
    return series


def series_is_solvable(group: PermGroup) -> bool:
    """G is solvable iff its derived series ends in the trivial group."""
    return derived_series(group)[-1].order() == 1


def closure_has_normal_p_complement(group: PermGroup, p: int) -> bool:
    """G has a normal p-complement iff O^p(G), the normal closure of its
    p'-class representatives, has order prime to p."""
    cd = group.conjugacy_classes()
    seeds = [rep for rep, m in zip(cd.reps, cd.element_orders) if m % p]
    return normal_closure(group, seeds).order() % p != 0


def bfs_classes(group: PermGroup) -> tuple[list[int], list[int], list[list[int]]]:
    """Conjugacy classes as orbits on the rows of element_rows(), found by
    breadth-first search a row at a time, each map conjugation by one
    generator built with Permutation products: (reps, class of each row,
    members of each class in discovery order).  Classes are numbered in
    the order of their least rows, each the class's representative."""
    elems = group.elements()
    row_of = {x: r for r, x in enumerate(elems)}
    conj = [[row_of[x.conjugate(g)] for x in elems] for g in group.generators]
    assigned = [-1] * len(elems)
    reps: list[int] = []
    orbits: list[list[int]] = []
    for x in range(len(elems)):
        if assigned[x] >= 0:
            continue
        orbit = [x]
        assigned[x] = len(reps)
        for y in orbit:         # grows as the search finds members
            for c in conj:
                z = c[y]
                if assigned[z] < 0:
                    assigned[z] = len(reps)
                    orbit.append(z)
        reps.append(x)
        orbits.append(orbit)
    return reps, assigned, orbits


def reference_cycle_string(g: Permutation) -> str:
    """Cycle notation by a walk over the image tuple that shares no code
    with the library's: cycles from their least points, "()" if none."""
    images, seen, text = g.images, set(), []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x))
            x = images[x]
        text.append("(" + " ".join(cycle) + ")")
    return "".join(text) or "()"


def brute_class_map(group: PermGroup, reps) -> dict[Permutation, int]:
    """Class index of every element: each rep conjugated by every element."""
    elems = group.elements()
    inverses = [g.inverse() for g in elems]
    classes: dict[Permutation, int] = {}
    for j, rep in enumerate(reps):
        for g, g_inv in zip(elems, inverses):
            c = classes.setdefault(g_inv * rep * g, j)
            assert c == j, "reps share a class"
    assert len(classes) == len(elems)
    return classes


def reference_class_matrix(reps, classes: dict, i: int) -> np.ndarray:
    """M[j,k] = #{x in C_i : x^-1 rep_k in C_j}, one Permutation per product.

    classes maps every element to its class, as brute_class_map does.
    """
    k = len(reps)
    m = np.zeros((k, k), dtype=np.int64)
    for x, c in classes.items():
        if c != i:
            continue
        x_inv = x.inverse()
        for kk, rep in enumerate(reps):
            m[classes[x_inv * rep], kk] += 1
    return m


def reference_split(cd, order, wf) -> np.ndarray:
    """The common eigenvectors split off e_0 by the classes of order in
    turn, each through its class matrix and eig_split_rows, until there
    are k, with no class skipped and no DFT, as at_identity gives them."""
    q = wf.q
    pieces = np.eye(1, len(cd), dtype=np.int64)
    for i in order:
        if len(pieces) == len(cd):
            break
        at = class_matrix(cd, i).T % q
        pieces = np.vstack([eig_split_rows(w, at, q) for w in pieces])
    return at_identity(pieces, q)


def at_identity(rows: np.ndarray, q: int) -> np.ndarray:
    """The rows scaled to 1 at the identity class (column 0), sorted."""
    rows = rows * np.array([[pow(int(x), -1, q)] for x in rows[:, 0]]) % q
    return rows[np.lexsort(rows.T[::-1])]


# -- SL(2,5) by matrices ---------------------------------------------------------

def sl25_matrix_order() -> int:
    count = 0
    for a, b, c, d in product(range(5), repeat=4):
        if (a * d - b * c) % 5 == 1:
            count += 1
    return count


def central_product_coset_count(m: int) -> int:
    """|SL(2,5) x C_{2m}| / 2 by explicitly enumerating diagonal cosets."""
    sl = construct_cached("SL(2,5)")
    cyc = construct_cached(f"C({2 * m})")
    from chartab import direct_product
    prod = direct_product(sl, cyc)
    pts = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(pts)}
    neg = tuple(idx[((-a) % 5, (-b) % 5)] for a, b in pts)
    half = tuple((i + m) % (2 * m) + 24 for i in range(2 * m))
    z = Permutation(neg + half)
    cosets = set()
    for x in prod.elements():
        cosets.add(frozenset({x, z * x}))
    return len(cosets)


# -- number theory ---------------------------------------------------------------

def search_working_prime(exponent: int, order: int) -> int:
    """Re-derive the working prime by direct search."""

    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    q = 2
    while True:
        if is_prime(q) and (q - 1) % exponent == 0 and q > 2 * isqrt(order):
            return q
        q += 1


def det_mod(a: np.ndarray, q: int) -> int:
    """Determinant over F_q by Gaussian elimination."""
    m = a.copy() % q
    n = m.shape[0]
    det = 1
    for c in range(n):
        nz = np.nonzero(m[c:, c])[0]
        if nz.size == 0:
            return 0
        r = c + int(nz[0])
        if r != c:
            m[[c, r]] = m[[r, c]]
            det = (-det) % q
        det = (det * int(m[c, c])) % q
        inv = pow(int(m[c, c]), -1, q)
        below = np.nonzero(m[c + 1:, c])[0] + c + 1
        if below.size:
            factors = (m[below, c] * inv) % q
            m[below] = (m[below] - np.outer(factors, m[c])) % q
    return det


def per_class_lift(values: np.ndarray, degrees, cd, wf) -> list[tuple]:
    """Exact values by one inverse DFT per class, with no Galois step.

    values[:, power_table[j, :m]] (chi(g_j^s) for s < m) times the m x m matrix
    z^(-s*t) / m gives the multiplicity of z^t in chi(g_j), z = w^(e/m).
    Raises InconsistentTable on a multiplicity above the degree or a sum
    other than the degree.
    """
    q, w, e = wf.q, wf.w, wf.exponent
    k, n = values.shape
    out = [[] for _ in range(k)]
    dfts = {}
    for j in range(n):
        m = cd.element_orders[j]
        if m not in dfts:
            z_inv = pow(pow(w, e // m, q), -1, q)
            dfts[m] = np.array([[pow(z_inv, s * t, q) for t in range(m)] for s in range(m)],
                               dtype=np.int64)
        mults = values[:, cd.power_table[j, :m]] @ dfts[m] % q * pow(m, -1, q) % q
        for r in range(k):
            row = mults[r]
            if (row > degrees[r]).any() or int(row.sum()) != degrees[r]:
                raise InconsistentTable(f"bad multiplicities (row {r}, class {j})")
            out[r].append(tuple((int(t) * (e // m), int(row[t]))
                                for t in np.flatnonzero(row)))
    return [tuple(row) for row in out]


# -- numeric character values (floats allowed here only) --------------------------

def numeric_character_rows(group: PermGroup, seed: int = 5) -> list[list[complex]]:
    """Character values from a complex diagonalization of the class algebra."""
    cd = group.conjugacy_classes()
    k = len(cd.reps)
    rng = np.random.default_rng(seed)
    combo = np.zeros((k, k))
    for i in range(1, k):
        combo += rng.uniform(0.5, 1.5) * class_matrix(cd, i).astype(float)
    _, vecs = np.linalg.eig(combo)
    order = group.order()
    rows = []
    for t in range(k):
        u = vecs[:, t]
        u = u / u[0]
        norm = sum(u[j] * np.conj(u[j]) / cd.sizes[j] for j in range(k))
        d = (order / norm.real) ** 0.5
        rows.append([d * u[j] / cd.sizes[j] for j in range(k)])
    return rows


def eval_complex(v, e: int) -> complex:
    """Complex value of a root-of-unity multiplicity vector ((l, m), ...)."""
    return sum(m * cmath.exp(2j * cmath.pi * l / e) for l, m in v)


def lifted_complex_rows(table) -> list[list[complex]]:
    e = table.q_field.exponent
    return [[eval_complex(v, e) for v in row] for row in lifted(table)]


def lifted(table) -> tuple[tuple[tuple, ...], ...]:
    """The exact value of every cell, row by row: distinct[cells[r, j]] at
    [r][j]."""
    return tuple(tuple(table.distinct[c] for c in row) for row in table.cells.tolist())


def mod_q_values(table) -> np.ndarray:
    """The table's values mod q as a (k, n) int64 array: each distinct
    value evaluated at zeta -> w, the working root, in Python ints, and
    gathered through cells."""
    q, w = table.q_field.q, table.q_field.w
    at_w = [sum(m * pow(w, l, q) for l, m in v) % q for v in table.distinct]
    return np.array([[at_w[c] for c in row] for row in table.cells.tolist()], dtype=np.int64)


def with_lifted(table, rows):
    """The table with its exact values replaced by the given rows of
    RootSums, stored as the table stores them: cells indexing the distinct
    values, ascending."""
    distinct = tuple(sorted({v for row in rows for v in row}))
    index = {v: i for i, v in enumerate(distinct)}
    cells = np.array([[index[v] for v in row] for row in rows], dtype=np.intp)
    return dataclasses.replace(table, cells=cells, distinct=distinct)


def match_rows_numeric(rows_a, rows_b, tol: float = 1e-6) -> bool:
    """Multiset equality of complex row vectors up to tol."""
    used = [False] * len(rows_b)
    for ra in rows_a:
        hit = None
        for i, rb in enumerate(rows_b):
            if used[i]:
                continue
            if all(abs(x - y) <= tol for x, y in zip(ra, rb)):
                hit = i
                break
        if hit is None:
            return False
        used[hit] = True
    return all(used)


# -- abelian dual-group construction ----------------------------------------------

def abelian_dual_rows(group: PermGroup, exponent: int) -> set[tuple[int, ...]]:
    """All homomorphisms G -> <zeta_e> as exponent vectors over elements.

    Built independently of the character-table engine: elements get words
    in the generators, candidate characters assign a root of unity to each
    generator, and candidates are kept iff the induced value map is a
    homomorphism on all of G x G.  That is tested as val[x*g] == val[x] +
    val[g] for every element x and generator g: every element is a word in
    the generators, so induction on word length gives the law on all pairs.
    """
    gens = group.generators
    for a in gens:
        for b in gens:
            assert a * b == b * a, "dual construction needs an abelian group"
    ident = group.identity()
    words = {ident: (0,) * len(gens)}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = x * g
                if y not in words:
                    w = list(words[x])
                    w[i] += 1
                    words[y] = tuple(w)
                    nxt.append(y)
        frontier = nxt
    elems = sorted(words)
    orders = [g.order() for g in gens]
    rows = set()
    for assignment in product(*(range(o) for o in orders)):
        val = {}
        for x in elems:
            w = words[x]
            val[x] = sum(assignment[i] * w[i] * (exponent // orders[i])
                         for i in range(len(gens))) % exponent
        if all(val[x * g] == (val[x] + val[g]) % exponent
               for x in elems for g in gens):
            rows.add(tuple(val[x] for x in elems))
    return rows


# -- closed-form character degrees of corpus families -----------------------------

def family_rows(expr: str) -> list[tuple[int, bool, bool]] | None:
    """(degree, rational, real) of each irreducible character, from closed
    forms alone, for a product of cyclic groups, D(n) (order 2n) or
    Aff(p, d) = C_p : C_d; None for any other expression.

    A linear character is rational iff it is real iff its values are +-1,
    that is iff its order divides 2: there are 2^(#even factors) of them
    on a product of cyclic groups, all 2 or 4 of D(n), and 1 + [d even]
    of Aff(p, d)'s d.  D(n)'s degree-2 characters, j = 1, ..., floor((n-1)/2),
    take 2 cos(2 pi j t / n), all real, and rational iff n / gcd(j, n) is
    3, 4 or 6: one for each of 3, 4, 6 dividing n.  Aff(p, d) has (p-1)/d
    characters of degree d, induced from C_p: their values are sums over
    a coset of the order-d subgroup H of F_p^x, rational iff H is all of
    it (d = p-1) and real iff -1 lies in H (d even).  D(1), D(2) and
    Aff(p, 1) are abelian, and the same forms hold for them.
    """
    if re.fullmatch(r"C\(\d+\)( x C\(\d+\))*", expr):
        factors = [int(n) for n in re.findall(r"\d+", expr)]
        signs = 2 ** sum(n % 2 == 0 for n in factors)
        return [(1, True, True)] * signs + [(1, False, False)] * (prod(factors) - signs)
    if m := re.fullmatch(r"D\((\d+)\)", expr):
        n = int(m.group(1))
        linear, wide = (2, (n - 1) // 2) if n % 2 else (4, (n - 2) // 2)
        rational = sum(n % d == 0 for d in (3, 4, 6))
        return ([(1, True, True)] * linear + [(2, True, True)] * rational
                + [(2, False, True)] * (wide - rational))
    if m := re.fullmatch(r"Aff\((\d+),\s*(\d+)\)", expr):
        p, d = int(m.group(1)), int(m.group(2))
        signs = 1 + (d % 2 == 0)
        return ([(1, True, True)] * signs + [(1, False, False)] * (d - signs)
                + [(d, d == p - 1, d % 2 == 0)] * ((p - 1) // d))
    return None
