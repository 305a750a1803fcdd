"""Exact irreducible character tables via Burnside-Dixon-Schneider.

The class-sum structure constants a_ijk act on F_q^k (k = number of
classes, q a prime with q = 1 mod exponent(G) and q > 2*floor(sqrt|G|)).
Their simultaneous eigenvectors, one per irreducible character, carry the
values omega(K_j) = |C_j| chi(g_j) / chi(1) mod q.  They are split off the
unit vector e_0 of the identity class, a sum of nonzero multiples of all
of them: one class per rational class in turn splits every piece it does
not map to a multiple of itself into its eigen-components, the central
classes first, then those whose Galois orbit holds more than one class
(only they separate Galois-conjugate characters), then the rational ones.
A central class {z} acts by a permutation sigma of the classes (g_j ->
z g_j), whose powers below z's order are built once: a piece splits by
one DFT over its shifts under them, with no class matrix, and they mark
the subgroup that the central classes applied so far generate, a central
class in which is skipped, as it splits nothing; any other class builds
its class matrix, and a piece splits by the minimal polynomial of its
Krylov rows, reduced one row at a time.
Degrees are recovered from the first orthogonality relation (the
q > 2*sqrt|G| bound makes the square root unique), mod-q values follow,
and exact cyclotomic values are lifted one rational class (Galois orbit
of classes) at a time, all the rational classes of one element order
together: a linear row by the discrete log of its value, checked at every
power of the representative, any other row by one inverse DFT mod q.
The other classes of an orbit are filled in by sigma_a, chi(g^a) =
sigma_a(chi(g)), for the whole table at once in numpy.  A table keeps its
exact values only, as one (k, n) array of indices into the tuple of its
distinct values, each built once and checked against the values mod q of
its cells, which the table does not keep.  The exact check, the fields,
the export and the invariants read that array.

verify_orthogonality checks the first orthogonality relation exactly: one
Gram product modulo each of a few primes p = 1 (mod e) whose product
bounds every entry, and Galois equivariance of the lifted values on
generators of (Z/e)^x, which makes those Gram products decide the entries
exactly in Z[zeta_e].

Everything in this module is exact: F_q arithmetic on int64 numpy arrays
and integer multiplicity vectors.  Floats appear only inside mat_mul, and
only as exact integers below 2**53.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .arith import element_of_order, is_prime, prime_factors, unit_generators
from .fplinalg import (InconsistentTable, eig_split_rows, float_exact, inv_mod, mat_mul,
                       require)
from .permgroup import ClassData, PermGroup

# a value in Z[zeta_e]: (exponent, multiplicity) pairs sorted by exponent,
# the eigenvalue multiplicities of a representation matrix, so equal values
# are equal tuples
RootSum = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class WorkingField:
    """Prime field used for the exact table computation."""

    q: int
    w: int          # element of multiplicative order = exponent
    exponent: int


def select_prime(exponent: int, order: int, offset: int = 0) -> WorkingField:
    """Smallest prime q = 1 (mod exponent) with q > 2*floor(sqrt(order)).

    offset=m skips to the (m+1)-th admissible prime, for the
    prime-independence cross-check.
    """
    bound = 2 * isqrt(order)
    q = exponent + 1 if exponent > 1 else 2
    skipped = 0
    while True:
        if q > bound and is_prime(q):
            if skipped == offset:
                return WorkingField(q=q, w=element_of_order(q, exponent),
                                    exponent=exponent)
            skipped += 1
        q += exponent if exponent > 1 else 1


@dataclass
class CharTable:
    """Rows are irreducible characters, columns are conjugacy classes.

    The exact value chi_r(g_j) is distinct[cells[r, j]]: a multiplicity
    vector over e-th roots of unity, stored sparsely as ((exponent,
    multiplicity), ...).  distinct holds each value once, ascending, and
    cells is a (k, n) int array of indices into it.  A value is the
    multiset of eigenvalues of a matrix representing g_j, which chi_r and
    the class determine, so rows compare exactly as their cells do.
    """

    group: PermGroup
    class_data: ClassData
    q_field: WorkingField
    degrees: tuple[int, ...]
    cells: np.ndarray
    distinct: tuple[RootSum, ...]

    @property
    def n_classes(self) -> int:
        return len(self.class_data)

    def value_index(self, value: RootSum) -> int:
        """The index of value in distinct, -1 if the table never takes it."""
        i = bisect_left(self.distinct, value)
        return i if i < len(self.distinct) and self.distinct[i] == value else -1

    def galois_fixed(self, k: int) -> np.ndarray:
        """Boolean mask of the rows sigma_k fixes: chi(g^k) = chi(g) for all g."""
        c = self.cells
        return np.all(c[:, self.class_data.power_classes(k)] == c, axis=1)


def class_matrix(cd: ClassData, i: int) -> np.ndarray:
    """Structure-constant matrix M[j,k] = #{x in C_i : x^-1 rep_k in C_j}."""
    k = len(cd)
    members = cd.member_index[cd.member_offsets[i]:cd.member_offsets[i + 1]]
    # (x^-1 * rep)[b] = rep[x^-1[b]] under left-to-right composition
    reps = cd.rep_index[:, None, None]
    classes = cd.lookup(cd.index.rows[reps, cd.inv_base[members]])   # (k, |C_i|)
    counts = np.bincount((classes * k + np.arange(k)[:, None]).ravel(), minlength=k * k)
    return counts.reshape(k, k).astype(np.int64, copy=False)


def class_permutation(cd: ClassData, i: int) -> np.ndarray:
    """For a central class {z}: sigma[j] is the class of z * g_j.

    The class matrix of {z} is then a permutation matrix, and x M^T is
    the gather x[sigma]."""
    require(cd.sizes[i] == 1, "only a central class acts by a permutation")
    rows, base = cd.index.rows, cd.index.base
    # (z * rep)[b] = rep[z[b]] under left-to-right composition
    return cd.lookup(rows[cd.rep_index[:, None], rows[cd.rep_index[i], base]])


def _split_spaces(cd: ClassData, order: list[int], wf: WorkingField) -> np.ndarray:
    """Split e_0 into one common eigenvector per character, one per row, by
    the classes of order in turn, each action built only when it is applied:
    a class matrix M acts by x -> x M^T, and a central class {z} by its
    class permutation sigma, x -> x[sigma].

    e_0, the unit vector of the identity class, is sum_chi chi(1)^2/|G| u_chi
    over the common eigenvectors u_chi of these actions, and no coefficient
    is 0 mod q (q divides neither |G| nor any chi(1)).  So each piece is a
    sum of nonzero multiples of the u_chi of a set of characters.  A piece
    whose image under the next action is a multiple of itself (tested by
    cross-multiplying at its first nonzero coordinate) stays as it is; any
    other is replaced by its eigen-components, which split that set by
    eigenvalue: by one DFT over its shifts under a permutation
    (_dft_split), by its minimal polynomial under a class matrix
    (eig_split_rows).  The split stops once there are k pieces.

    A central character omega_chi is a homomorphism on Z(G) (Schneider,
    J. Symbolic Comput. 9 (1990) 601-606), so once every piece is an
    eigenvector of z_1, ..., z_r it is one of every product of their
    powers, and such a class is skipped, as it splits nothing.  inside
    marks the classes of that subgroup H; z's powers sigma^t, t below its
    order m, mark <H, z> = union of the z^-t H as the classes j with
    inside[sigma^t[j]] for some t.
    """
    q, k = wf.q, len(cd)
    spaces = np.zeros((k, k), dtype=np.int64)      # the pieces, in its first n rows
    spaces[0, 0] = 1
    n = 1
    inside = np.zeros(k, dtype=bool)
    inside[0] = True
    for i in order:
        if inside[i]:       # only central classes are ever marked
            continue
        pieces = spaces[:n]
        central = cd.sizes[i] == 1
        if central:
            powers = _perm_powers(class_permutation(cd, i), cd.element_orders[i])
            inside = inside[powers].any(axis=0)
            image = pieces[:, powers[1]]
        else:
            # once, for every product with it
            at = np.fmod(class_matrix(cd, i).T, q, dtype=np.float64)
            image = mat_mul(pieces, at, q)
        rows = np.arange(n)
        lead = np.argmax(pieces != 0, axis=1)
        cross = image[rows, lead, None] * pieces
        image *= pieces[rows, lead, None]
        cross -= image
        cross %= q
        mixed = np.flatnonzero(cross.any(axis=1))
        if not len(mixed):
            continue
        if central:
            parts = _dft_split(pieces[mixed], powers, wf)
        else:
            parts = np.vstack([eig_split_rows(w, at, q) for w in pieces[mixed]])
        # the first parts replace the mixed pieces, the others follow the rest
        added = len(parts) - len(mixed)
        require(n + added <= k, "more eigen-components than classes")
        spaces[mixed] = parts[:len(mixed)]
        spaces[n:n + added] = parts[len(mixed):]
        n += added
        if n == k:
            break
    return spaces[:n]


def _perm_powers(sigma: np.ndarray, m: int) -> np.ndarray:
    """The (m, k) array of sigma^t at row t < m, x P^t = x[sigma^t] for
    x P = x[sigma], by doubling: sigma^(a+t) = sigma^t[sigma^a].  sigma
    is the class permutation of a central class of element order m, so
    sigma^m must be the identity."""
    k = len(sigma)
    powers = np.empty((m, k), dtype=np.intp)
    powers[0] = np.arange(k)
    a = 1
    while a < m:
        b = min(a, m - a)
        powers[a:a + b] = powers[:b, powers[a - 1][sigma]]
        a += b
    require(np.array_equal(powers[-1][sigma], powers[0]),
            "a central class must act with order dividing its element order")
    return powers


def _dft_split(pieces: np.ndarray, powers: np.ndarray, wf: WorkingField) -> np.ndarray:
    """The eigen-components of each row under x -> x P = x[sigma], a class
    permutation of order dividing m, as rows, powers[t] being sigma^t for
    t < m (_perm_powers); no polynomial is solved and nothing is reduced.

    The period d of a row u is the least d with u P^d = c u.  It divides
    m, which divides e, and every eigenvalue lam of a component of u has
    lam^d = c.  Those roots are lam_i = w^(s + i e/d), i < d, with
    s = log_w(c) / d, and the component for lam_i is
    sum_{t<d} lam_i^-t u P^t: its terms in one character cancel unless
    that character's eigenvalue is lam_i, so a root of no character gives
    a zero row, which is dropped.  The shifts of all rows of one period,
    each twisted by w^(-s t), are gathered at once through powers[:d] and
    multiplied by the one d x d DFT matrix z^(-i t), z = w^(e/d).
    """
    q, e, m = wf.q, wf.exponent, len(powers)
    n, k = pieces.shape
    wpow = _root_powers(wf)

    # the period of each row: the least divisor d of m with u P^d = c u
    lead = np.argmax(pieces != 0, axis=1)
    at_lead = pieces[np.arange(n), lead]
    period = np.zeros(n, dtype=np.int64)
    ratio = np.zeros(n, dtype=np.int64)       # c * u[lead]
    pending = np.arange(n)
    for d in [d for d in range(2, m + 1) if m % d == 0]:
        shift = pieces[pending][:, powers[d % m]]
        here = shift[np.arange(len(pending)), lead[pending]]
        closed = ~((shift * at_lead[pending, None] - here[:, None] * pieces[pending]) % q).any(axis=1)
        period[pending[closed]] = d
        ratio[pending[closed]] = here[closed]
        pending = pending[~closed]
        if not len(pending):        # at d = m at the latest, as sigma^m = 1
            break
    c = ratio * np.array([inv_mod(x, q) for x in at_lead.tolist()], dtype=np.int64) % q
    logs = np.argmax(wpow == c[:, None], axis=1)
    require(bool((wpow[logs] == c).all() and not (logs % period).any()),
            "a central class must act by e-th roots of unity")

    parts = []
    for d in sorted(set(period.tolist())):
        sel = np.flatnonzero(period == d)
        t = np.arange(d)
        # floats, which mat_mul takes as they are, wherever they are exact
        dtype = np.float64 if float_exact(q, d) else np.int64
        wd = wpow.astype(dtype)
        # pieces[sel[r]] P^t at [t, r]
        shifts = pieces[sel[None, :, None], powers[:d, None, :]].astype(dtype)
        shifts *= wd[-np.outer(t, logs[sel] // d) % e][:, :, None]
        shifts %= q
        comps = mat_mul(wd[-np.outer(t, t) * (e // d) % e], shifts.reshape(d, -1), q)
        comps = comps.reshape(-1, k)
        parts.append(comps[comps.any(axis=1)])
    return np.vstack(parts)


def _root_powers(wf: WorkingField) -> np.ndarray:
    """w^t mod q for t < e, by doubling; w^-t is at -t % e."""
    q, w = wf.q, wf.w
    wpow = np.ones(1, dtype=np.int64)
    while len(wpow) < wf.exponent:
        wpow = np.concatenate([wpow, wpow * pow(w, len(wpow), q) % q])
    return wpow[:wf.exponent]


def _matrix_order(cd: ClassData, orbits: dict) -> list[int]:
    """One class per rational class (the reps of _galois_orbits), then the
    rest; the identity class (never splits anything) is skipped.  In the
    first part the central classes come first, then the non-central classes
    whose rational class holds more than one class, then the non-central
    rational ones, each by (size, index).

    omega(K_{j^a}) = sigma_a(omega(K_j)), so over C the first part
    separates every character; the rest runs only if it does not mod q.
    A class fixed by sigma_a (g^a conjugate to g) gives chi and chi^sigma_a
    the same value omega(K_j), so only classes in a Galois orbit of more
    than one class can separate Galois-conjugate characters, and by
    Brauer's permutation lemma such characters exist exactly when such
    classes do (Isaacs, Character Theory of Finite Groups, Thm 6.32).
    Pulling those classes first leaves the rational ones, which separate
    no Galois-conjugate pair, to run only while pieces remain; the central
    classes keep their place, as their splits are cheap."""
    orbit_size = {j: len(orbit) for reps in orbits.values() for j, orbit in reps}
    return sorted(range(1, len(cd)),
                  key=lambda i: (i not in orbit_size, cd.sizes[i] > 1 and orbit_size.get(i) == 1,
                                 cd.sizes[i], i))


def compute_table(group: PermGroup, prime_offset: int = 0) -> CharTable:
    """Full exact character table of a dense-mode group."""
    cd = group.conjugacy_classes()
    order = group.order()
    k = len(cd)
    wf = select_prime(cd.exponent, order, offset=prime_offset)
    q = wf.q
    orbits = _galois_orbits(cd)

    spaces = _split_spaces(cd, _matrix_order(cd, orbits), wf)
    require(len(spaces) == k, "eigenspace splitting incomplete")

    inv_classes = cd.power_classes(-1)
    size_invs = np.array([inv_mod(s % q, q) for s in cd.sizes], dtype=np.int64)
    # sqrt_of[d*d mod q] = d: q > 2*floor(sqrt|G|) keeps these squares distinct
    sqrt_of = np.zeros(q, dtype=np.int64)
    ds = np.arange(1, isqrt(order) + 1, dtype=np.int64)
    sqrt_of[ds * ds % q] = ds

    # each row normalised at the identity class, its norm through the
    # inverse classes, then chi(1)^2 = |G| / norm and values d * u / |C_j|
    require(bool(spaces[:, 0].all()), "identity-class coordinate must be nonzero")
    u = spaces * np.array([[inv_mod(x, q)] for x in spaces[:, 0]], dtype=np.int64) % q
    norms = (u * u[:, inv_classes] % q * size_invs % q).sum(axis=1) % q
    require(bool(norms.all()), "row norm must be nonzero")
    d_sq = np.array([(order % q) * inv_mod(s, q) % q for s in norms], dtype=np.int64)
    deg = sqrt_of[d_sq]
    require(bool(deg.all()), "degree square root not found")
    degrees = deg.tolist()

    require(sum(d * d for d in degrees) == order, "sum of squared degrees must be |G|")
    values = deg[:, None] * u % q * size_invs % q

    cells, distinct = _lift_all(values, degrees, cd, wf, orbits)

    # deterministic row order: by degree, then by the exact lifted values,
    # which compare as their indices do since distinct is ascending
    perm = np.lexsort([*cells.T[::-1], deg])
    degrees = [degrees[r] for r in perm]
    values = values[perm]
    cells = cells[perm]

    require(degrees[0] == 1 and all(v == 1 for v in values[0]), "row 0 must be trivial")
    require([int(v) for v in values[:, 0]] == degrees, "identity column must list degrees")
    require(all(order % d == 0 for d in degrees), "degrees must divide |G|")

    return CharTable(
        group=group,
        class_data=cd,
        q_field=wf,
        degrees=tuple(degrees),
        cells=cells,
        distinct=distinct,
    )


def _galois_orbits(cd: ClassData) -> dict[int, list[tuple[int, dict[int, int]]]]:
    """Rational classes grouped by element order m.

    Each entry is (rep, orbit): rep is the first class of its orbit under
    the power maps g -> g^a with gcd(a, m) = 1, and orbit maps every class
    of the orbit, rep included, to the smallest such a reaching it."""
    done: set[int] = set()
    by_order: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for j, m in enumerate(cd.element_orders):
        if j in done:
            continue
        orbit: dict[int, int] = {}
        for a, c in enumerate(cd.power_table[j, :m].tolist()):
            if gcd(a, m) == 1:
                orbit.setdefault(c, a)
        done.update(orbit)
        by_order.setdefault(m, []).append((j, orbit))
    return by_order


def _lift_all(values: np.ndarray, degrees: list[int], cd: ClassData,
              wf: WorkingField, orbits: dict) -> tuple[np.ndarray, tuple[RootSum, ...]]:
    """Exact character values for every row and class, as (cells, distinct).

    The representatives of one element order m of the rational classes,
    orbits being _galois_orbits(cd), are lifted together from chi(g^t) for
    t < m, gathered through the power maps as a (row, rep, t) block in
    chunks of at most k*k entries.  A degree-1 row is w^l at g, l read from
    one size-q table of discrete logs, and must be w^(l*t) at g^t for every
    t < m with l*m = 0 (mod e) (_linear_exponents).  Every other row is
    multiplied by the m x m inverse-DFT matrix, which gives the
    multiplicity of each m-th root z^t = w^(t*e/m) in chi(g); every
    multiplicity must be at most chi(1) and they must sum to chi(1).  For
    a degree-1 row that check says exactly that one root has multiplicity
    1, that is chi(g^t) = z^(s*t) for some s and every t < m, which is the
    discrete-log check with l = s*e/m.

    The nonzero terms of each (row, rep) then go to every class g^a of its
    orbit (gcd(a, m) = 1) by sigma_a, which sends the exponent l of w to
    a*l mod e, on the whole table at once: one (row, class, term) array,
    padded to the widest support.  Each cell's terms are sorted, so equal
    values have equal keys, and one np.unique over the k*n keys finds the
    distinct values.  They are returned ascending, cells[r, j] being the
    index of chi_r(g_j).  Every lifted value, evaluated at w, must equal
    its value mod q.
    """
    q, e = wf.q, wf.exponent
    k, n = values.shape
    deg = np.asarray(degrees, dtype=np.int64)
    linear, wide = np.flatnonzero(deg == 1), np.flatnonzero(deg > 1)
    linear_values, wide_values = values[linear], values[wide]
    wpow = _root_powers(wf)
    log = np.full(q, -1, dtype=np.int64)        # log[w^l] = l for l < e, else -1
    log[wpow] = np.arange(e)
    b = int(deg.max()) + 1      # above every multiplicity
    # by_rep[r, i] holds the terms of chi_r at the i-th rep lifted, each as
    # one int l*b + multiplicity (z^t = w^l), then a 0 for each empty slot;
    # no rep has more terms than the largest degree or element order
    bound = min(b - 1, max(orbits))
    by_rep = np.zeros((k, sum(map(len, orbits.values())), bound), dtype=np.int64)
    rep_of = [-1] * n           # class -> index of its rep
    power = [0] * n             # class -> a with class = rep^a
    n_reps = 0
    for m, reps in orbits.items():
        step = e // m
        t = np.arange(m)
        if len(wide):
            # idft[s, t] = z^(-s*t) / m, z = w^step
            idft = wpow[-np.outer(t, t) * step % e] * inv_mod(m % q, q) % q
        lb = t * (step * b)
        chunk = max(1, k // m)
        for start in range(0, len(reps), chunk):
            batch = reps[start:start + chunk]
            classes = [j for j, _ in batch]
            powers = cd.power_table[classes, :m]
            slots = n_reps + np.arange(len(batch))
            logs = _linear_exponents(linear_values[:, powers], log, wpow, linear, classes)
            by_rep[linear[:, None], slots, 0] = logs * b + 1
            if len(wide):
                mults = mat_mul(wide_values[:, powers], idft, q)     # (row, rep, t)
                _check_multiplicities(mults, deg[wide], wide, classes)
                r, i, t = np.nonzero(mults)
                slot = np.cumsum(mults > 0, axis=2)[r, i, t] - 1
                by_rep[wide[r], slots[i], slot] = mults[r, i, t] + lb[t]
            for _, orbit in batch:
                for j, a in orbit.items():
                    rep_of[j], power[j] = n_reps, a
                n_reps += 1
    require(min(rep_of) >= 0, "every class must be lifted")

    width = int(by_rep.any(axis=(0, 1)).sum())       # the slots any term uses
    # class rep^a: each term's exponent l goes to a*l mod e, that is l*b to
    # a*l*b mod e*b; an empty slot stays 0, below every term
    keys = by_rep[:, rep_of, :width]                    # (row, class, slot)
    del by_rep
    mults = keys % b
    keys -= mults
    keys *= np.array(power)[:, None]
    keys %= e * b
    keys += mults
    del mults
    # every key is below e*b: narrowed to the smallest int type that holds it
    keys = keys.astype(np.min_scalar_type(e * b)).reshape(k * n, width)
    keys.sort(axis=1, kind="stable")
    # a one-term key is compared as an int, much faster than as bytes
    whole = keys if width == 1 else keys.view(np.dtype((np.void, keys.itemsize * width)))
    uniq, inverse = np.unique(whole.ravel(), return_inverse=True)
    found = [tuple(divmod(c, b) for c in key if c)
             for key in uniq.view(keys.dtype).reshape(-1, width).tolist()]
    ranked = sorted(range(len(found)), key=found.__getitem__)
    rank = np.empty(len(found), dtype=np.intp)
    rank[ranked] = np.arange(len(found))
    cells = rank[inverse].reshape(k, n)
    distinct = tuple(found[u] for u in ranked)
    failures = _value_failures(cells, distinct, values, wf)
    if failures:
        raise InconsistentTable(failures[0])
    return cells, distinct


def _linear_exponents(block: np.ndarray, log: np.ndarray, wpow: np.ndarray,
                      rows: np.ndarray, classes: list[int]) -> np.ndarray:
    """l with chi(g) = w^l for each degree-1 row and rep g of block, the
    (row, rep, t) values chi(g^t), t < m.  Raises unless l*m = 0 (mod e),
    that is w^l is an m-th root of unity, and chi(g^t) = w^(l*t) for every
    t < m: chi restricted to <g> is then the character g^t -> w^(l*t)."""
    e, m = len(wpow), block.shape[2]
    logs = log[block[:, :, 1 % m]]
    root = (logs >= 0) & (logs * m % e == 0)
    bad = ~root | (wpow[logs[:, :, None] * np.arange(m) % e] != block).any(axis=2)
    if bad.any():
        r, i = np.argwhere(bad)[0]
        what = "is not chi(g)^t at some g^t" if root[r, i] else "is no m-th root of unity"
        raise InconsistentTable(f"lifted value of linear row {rows[r]} {what} "
                                f"(class {classes[i]}, m = {m})")
    return logs


def _check_multiplicities(mults: np.ndarray, deg: np.ndarray, rows: np.ndarray,
                          classes: list[int]) -> None:
    """Every multiplicity of mults, (row, rep, root) for the given rows of
    degrees deg, is at most the row's degree and they sum to it."""
    over = mults > deg[:, None, None]
    if over.any():
        i, r, t = np.argwhere(over.transpose(1, 0, 2))[0]
        raise InconsistentTable(
            f"lifted multiplicity {int(mults[r, i, t])} exceeds degree {int(deg[r])} "
            f"(row {rows[r]}, class {classes[i]})")
    sums = mults.sum(axis=2)
    wrong = sums != deg[:, None]
    if wrong.any():
        i, r = np.argwhere(wrong.T)[0]
        raise InconsistentTable(
            f"lifted multiplicities sum to {int(sums[r, i])} != degree "
            f"{int(deg[r])} (row {rows[r]}, class {classes[i]})")


def verify_orthogonality(table: CharTable) -> bool:
    """The first orthogonality relation exactly.

    alpha_rs = sum_j |C_j| chi_r(g_j) conj(chi_s(g_j)) - delta_rs |G| lies
    in Z[zeta_e] (conj negates exponents); it is evaluated at zeta -> w, w of
    order e mod p, by one Gram product mod p for each p = select_prime(e,
    |G|, offset=i), i = 0, 1, ..., until the product N of the primes exceeds
    B = max_rs sum_j |C_j| mu_r(j) mu_s(j) + delta_rs |G| (mu: the sum of
    the |multiplicities|), a bound on every conjugate of alpha_rs.  If
    chi(g_j^a) = sigma_a(chi(g_j)) for all a prime to e (checked on
    generators of (Z/e)^x), alpha_rs has the same value at every prime
    above p, so zero at w for every p puts it in N Z[zeta_e], where only 0
    has all conjugates below N.  For such equivariant tables the failing
    row pairs are exactly those with alpha_rs != 0.

    Both relations then hold mod q as well: the table's values mod q are
    its exact values at zeta -> w, a ring homomorphism Z[zeta_e] -> F_q.
    For the square table X and D = diag(|C_j|), X D X* = |G| I gives
    X* X = |G| D^-1, which is second orthogonality, and by equivariance
    zeta -> w sends conj(chi(g)) = sigma_-1(chi(g)) to the value mod q on
    the class of g^-1.  On False, orthogonality_failures() locates the
    failures."""
    return not orthogonality_failures(table)


def orthogonality_failures(table: CharTable) -> list[str]:
    return _gram_failures(table) or _equivariance_failures(table)


def _at_root(distinct: tuple[RootSum, ...], wpow: np.ndarray, p: int) -> np.ndarray:
    """Each distinct value at zeta -> w, mod p, wpow being the powers w^t,
    t < e, of a root w of order e = len(wpow) mod p, as _root_powers gives."""
    wpow, e = wpow.tolist(), len(wpow)
    return np.array([sum(m * wpow[l % e] for l, m in val) % p for val in distinct],
                    dtype=np.int64)


def _gram_failures(table: CharTable) -> list[str]:
    """Row pairs r <= s whose Gram entry differs from delta_rs |G| modulo
    some prime."""
    e = table.q_field.exponent
    order = table.group.order()
    k = table.n_classes
    cells = table.cells
    sizes = np.array(table.class_data.sizes, dtype=np.int64)
    mu = np.array([sum(abs(m) for _, m in val) for val in table.distinct], dtype=np.int64)[cells]
    bound = int(((mu * mu) @ sizes).max()) + order     # max B_rs = max B_rr, by Cauchy-Schwarz
    bad = np.zeros((k, k), dtype=bool)
    product, offset = 1, 0
    while product <= bound:
        wf = select_prime(e, order, offset=offset)
        p = wf.q
        wpow = _root_powers(wf)
        at_w = _at_root(table.distinct, wpow, p)
        at_w_inv = _at_root(table.distinct, wpow[-np.arange(e) % e], p)
        gram = mat_mul(at_w[cells] * (sizes % p) % p, at_w_inv[cells].T, p)
        bad |= gram != np.eye(k, dtype=np.int64) * (order % p)
        product, offset = product * p, offset + 1
    return [f"exact first orthogonality fails at rows ({r},{s})"
            for r, s in zip(*np.nonzero(np.triu(bad)))]


def _equivariance_failures(table: CharTable) -> list[str]:
    """Cells where chi(g_j^a) != sigma_a(chi(g_j)), for a in generators of
    (Z/e)^x; sigma_a sends exponent l to a*l mod e."""
    e = table.q_field.exponent
    failures: list[str] = []
    for a in unit_generators(e):
        # the index of sigma_a(value) for each distinct value, -1 if none
        image = np.array([table.value_index(tuple(sorted((a * l % e, m) for l, m in val)))
                          for val in table.distinct])
        wrong = table.cells[:, table.class_data.power_classes(a)] != image[table.cells]
        for r, j in zip(*np.nonzero(wrong)):
            failures.append(f"lifted values not Galois-equivariant at row {r}, "
                            f"class {j} under sigma_{a}")
    return failures


def _value_failures(cells: np.ndarray, distinct: tuple[RootSum, ...], values: np.ndarray,
                    wf: WorkingField) -> list[str]:
    """Cells whose lifted value at zeta -> w differs from its value mod q."""
    wrong = _at_root(distinct, _root_powers(wf), wf.q)[cells] != values
    return [f"lifted value does not match its value mod q at row {r}, class {j}"
            for r, j in zip(*np.nonzero(wrong))]


# -- export ---------------------------------------------------------------

def table_document(table: CharTable) -> dict:
    """Machine-readable table export (JSON-serializable, deterministic)."""
    from .fields import field_labels
    cd, wf = table.class_data, table.q_field
    reps = cd.rep_strings()
    text = [_render(v) for v in table.distinct]
    return {
        "order": table.group.order(),
        "degree": table.group.degree,
        "num_classes": table.n_classes,
        "exponent": wf.exponent,
        "q": wf.q,
        "w": wf.w,
        "classes": [
            {
                "rep": reps[j],
                "size": cd.sizes[j],
                "element_order": cd.element_orders[j],
            }
            for j in range(table.n_classes)
        ],
        "degrees": list(table.degrees),
        "row_fields": field_labels(table, prime_factors(wf.exponent)),
        "values_mod_q": _at_root(table.distinct, _root_powers(wf), wf.q)[table.cells].tolist(),
        "lifted": [[text[i] for i in row] for row in table.cells.tolist()],
    }


def _render(v: RootSum) -> str:
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


def format_table(table: CharTable) -> str:
    """Plain-text rendering with exact values (z = primitive e-th root).

    Columns are named in the ATLAS style, so each is as wide as its widest
    entry: the element order, then a letter for each class of that order
    in class order (1a, 2a, 5a, 5b).  The representatives are listed once,
    below the table."""
    cd = table.class_data
    e = table.q_field.exponent
    names = _class_names(cd.element_orders)
    text = [_render(v) for v in table.distinct]
    rows = [["class", *names],
            ["size", *map(str, cd.sizes)],
            ["order", *map(str, cd.element_orders)]]
    rows += [[f"X{r} (deg {d})", *(text[i] for i in cells)]
             for r, (d, cells) in enumerate(zip(table.degrees, table.cells.tolist()))]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = [
        f"|G| = {table.group.order()}   classes = {table.n_classes}   "
        f"exponent = {e}   q = {table.q_field.q}  (z = primitive {e}-th root of unity)",
    ]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.append("representatives:")
    width = max(map(len, names))
    lines += [f"  {name.ljust(width)}  {rep}" for name, rep in zip(names, cd.rep_strings())]
    return "\n".join(lines)


def _class_names(orders: tuple[int, ...]) -> list[str]:
    """ATLAS class names: each class's element order and a letter for its
    place among the classes of that order (a, b, ..., z, aa, ab, ...)."""
    seen: dict[int, int] = {}
    names = []
    for m in orders:
        i = seen[m] = seen.get(m, 0) + 1
        letters = ""
        while i:
            i, r = divmod(i - 1, 26)
            letters = chr(ord("a") + r) + letters
        names.append(f"{m}{letters}")
    return names
