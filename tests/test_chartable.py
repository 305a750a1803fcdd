import dataclasses
import random
import re
from math import gcd

import numpy as np
import pytest

from chartab import (InconsistentTable, WorkingField, acd_pprime_over_central,
                     central_linear_characters, chartable, construct, fplinalg,
                     select_prime, verify_orthogonality)
from chartab.chartable import (CharTable, _class_action, _galois_orbits, _matrix_order,
                               _split_spaces, class_matrix, class_permutation,
                               compute_table, orthogonality_failures, table_document)
from chartab.arith import unit_generators
from chartab.harness import check_group
from chartab.invariants import kernel_contains

from helpers import (TABLES_GROUPS, brute_class_map, derived_subgroup, det_mod, lifted,
                     lifted_complex_rows, match_rows_numeric, numeric_character_rows,
                     per_class_lift, reference_class_matrix, relabel,
                     search_working_prime, table_of, with_lifted)


# -- working prime ---------------------------------------------------------------

def test_select_prime_a5():
    wf = select_prime(30, 60)
    assert wf.q == 31 == search_working_prime(30, 60)
    assert pow(wf.w, 30, 31) == 1
    assert all(pow(wf.w, 30 // f, 31) != 1 for f in (2, 3, 5))


def test_select_prime_order_two():
    # 3 > 2*floor(sqrt(2)) = 2, and 3 = 1 mod 2
    assert select_prime(2, 2).q == 3 == search_working_prime(2, 2)


def test_select_prime_trivial_group():
    # strict bound q > 2*floor(sqrt(1)) = 2 rules out q = 2
    assert select_prime(1, 1).q == 3


def test_select_prime_against_search():
    for exponent, order in [(6, 6), (12, 24), (4, 8), (30, 120), (21, 21)]:
        assert select_prime(exponent, order).q == \
            search_working_prime(exponent, order)


def test_select_prime_offset():
    first = select_prime(30, 60, offset=0).q
    second = select_prime(30, 60, offset=1).q
    assert first == 31 and second == 61


# -- class matrices ----------------------------------------------------------------

def test_class_matrix_identity_class():
    cd = construct("S(4)").conjugacy_classes()
    assert np.array_equal(class_matrix(cd, 0), np.eye(len(cd.reps), dtype=np.int64))


def test_class_matrix_abelian_is_zero_one():
    cd = construct("C(6)").conjugacy_classes()
    for i in range(6):
        m = class_matrix(cd, i)
        assert set(np.unique(m)) <= {0, 1}
        assert np.array_equal(m.sum(axis=0), np.ones(6, dtype=np.int64))


def test_class_matrix_column_sums_a5():
    cd = construct("A(5)").conjugacy_classes()
    i = list(cd.sizes).index(15)  # double transpositions
    m = class_matrix(cd, i)
    assert np.array_equal(m.sum(axis=0), np.full(5, 15, dtype=np.int64))


def test_class_matrix_matches_per_product_reference():
    for expr in ("C(1)", "A(5)", "D(10)", "S(3) x C(4)", "Aff(7,3)",
                 "CentralProd(SL(2,5), C(4))"):
        for group in (construct(expr), relabel(construct(expr), seed=3)):
            cd = group.conjugacy_classes()
            classes = brute_class_map(group, cd.reps)
            for i in range(len(cd.reps)):
                assert np.array_equal(class_matrix(cd, i),
                                      reference_class_matrix(cd.reps, classes, i)), (expr, i)


def test_class_matrix_corrupted_key_raises():
    # one point of the last level's orbit is marked as off it, so the
    # products sifted through that point match no element
    cd = construct("A(5)").conjugacy_classes()
    last = cd.index.slots[-1].copy()
    last[np.flatnonzero(last >= 0)[-1]] = -1
    index = dataclasses.replace(cd.index, slots=cd.index.slots[:-1] + (last,))
    bad = dataclasses.replace(cd, index=index)
    with pytest.raises(InconsistentTable):
        for i in range(len(cd.reps)):
            class_matrix(bad, i)


def order_of(cd):
    return _matrix_order(cd, _galois_orbits(cd))


def test_compute_table_finds_the_galois_orbits_once(monkeypatch):
    calls = []

    def counted(cd):
        calls.append(cd)
        return _galois_orbits(cd)

    monkeypatch.setattr(chartable, "_galois_orbits", counted)
    for expr in ("A(5)", "D(10)", "C(12)"):
        calls.clear()
        compute_table(construct(expr))
        assert len(calls) == 1, expr


def test_matrix_order_starts_with_one_class_per_rational_class(monkeypatch):
    # K_j and K_{j^a} (gcd(a, e) = 1) separate the same characters, so the
    # order lists one class of each rational class first; D(200)'s 99
    # rotation classes fall into 11 rational classes, one per order.  In
    # that part the central classes come first, then the non-central
    # classes whose Galois orbit has more than one class (only they separate
    # Galois-conjugate characters), then the non-central rational ones: A(8)
    # splits with a class of 7-cycles, one of order 15 and the class of
    # (0 1)(2 3)(4 5)(6 7).  A pull is a class matrix or, for a central
    # class, a class permutation
    pulled = []

    def counted(build):
        def pull(cd, i):
            pulled.append(i)
            return build(cd, i)
        return pull

    monkeypatch.setattr(chartable, "class_matrix", counted(class_matrix))
    monkeypatch.setattr(chartable, "class_permutation", counted(class_permutation))
    cases = [("D(200)", None, 13, 12), ("Aff(7,3)", None, 2, 2), ("C(12)", None, 5, 1),
             ("S(4)", None, 4, 2)]
    cases += [(expr, seed, n_first, n_pulled) for expr, n_first, n_pulled
              in (("A(8)", 11, 3), ("SL(2,9)", 9, 5)) for seed in (None, 7)]
    for expr, seed, n_first, n_pulled in cases:
        group = construct(expr) if seed is None else relabel(construct(expr), seed)
        cd = group.conjugacy_classes()
        order = order_of(cd)
        assert sorted(order) == list(range(1, len(cd.reps))), expr
        first, rest = order[:n_first], order[n_first:]
        images = [cd.power_classes(a).tolist() for a in range(cd.exponent)
                  if gcd(a, cd.exponent) == 1]
        rational = [{image[j] for image in images} for j in first]
        orbit_size = dict(zip(first, map(len, rational)))
        assert first == sorted(first, key=lambda j: (cd.sizes[j] > 1 and orbit_size[j] == 1,
                                                     cd.sizes[j], j)), expr
        assert all(j not in r for i, r in enumerate(rational) for j in first[i + 1:]), expr
        assert all(any(j in r for r in rational) for j in rest), expr
        pulled.clear()
        compute_table(group)
        assert len(pulled) == n_pulled and set(pulled) <= set(first), expr


GALOIS_CASES = [(expr, seed) for expr in TABLES_GROUPS for seed in (None, 7)]
GALOIS_CASES += [("A(7)", None), ("SL(2,7)", None), ("Aff(13,12)", None)]


@pytest.mark.parametrize("expr, seed", GALOIS_CASES)
def test_galois_fixes_as_many_rows_as_classes(expr, seed):
    # Brauer's permutation lemma (Isaacs, Character Theory of Finite Groups,
    # Thm 6.32): sigma_a fixes as many characters as g -> g^a fixes classes,
    # which is what pulling the irrational classes first rests on
    group = construct(expr) if seed is None else relabel(construct(expr), seed)
    t = compute_table(group)
    cd = t.class_data
    for a in unit_generators(cd.exponent):
        powers = [int(cd.power_table[j, a % cd.element_orders[j]]) for j in range(t.n_classes)]
        assert cd.power_classes(a).tolist() == powers
        fixed_classes = sum(p == j for j, p in enumerate(powers))
        assert int(t.galois_fixed(a).sum()) == fixed_classes, (expr, a)


def field_of(group):
    return select_prime(group.conjugacy_classes().exponent, group.order())


def test_split_spaces_builds_only_applied_matrices():
    early = 0
    for expr in ("S(4)", "A(5)", "D(10)", "SL(2,5)", "Aff(7,3)"):
        group = construct(expr)
        cd = group.conjugacy_classes()
        k, wf = len(cd.reps), field_of(group)
        mats = [_class_action(cd, i) for i in order_of(cd)]
        # the shortest prefix of the matrix order that splits off every character
        applied = next(n for n in range(len(mats) + 1)
                       if len(_split_spaces(mats[:n], k, wf)) == k)
        pulls = 0

        def stream():
            nonlocal pulls
            for mat in mats:
                pulls += 1
                yield mat

        assert len(_split_spaces(stream(), k, wf)) == k
        assert pulls == applied, expr
        early += applied < len(mats)
    assert early        # some split finishes before the last matrix


def test_split_spaces_reduces_each_new_space_once(monkeypatch):
    # pieces are single vectors and the split runs no rref at all: a class
    # matrix splits a mixed piece by its minimal polynomial, a class
    # permutation by a DFT over its shifts, and each call adds its new
    # pieces once, so the calls of both kinds add exactly k - 1 pieces to e_0
    calls = {"rref": 0, "eig": 0, "dft": 0, "added": 0}
    rref, split, dft = fplinalg.rref, chartable.eig_split_rows, chartable._dft_split

    def counted_rref(a, q):
        calls["rref"] += 1
        return rref(a, q)

    def counted_split(w, at, q):
        out = split(w, at, q)
        calls["eig"] += 1
        calls["added"] += len(out) - 1
        return out

    def counted_dft(pieces, sigma, wf):
        out = dft(pieces, sigma, wf)
        calls["dft"] += 1
        calls["added"] += len(out) - len(pieces)
        return out

    monkeypatch.setattr(fplinalg, "rref", counted_rref)
    monkeypatch.setattr(chartable, "eig_split_rows", counted_split)
    monkeypatch.setattr(chartable, "_dft_split", counted_dft)
    for expr in ("S(4)", "A(5)", "D(10)", "SL(2,5)", "C(2) x C(2) x C(2)"):
        group = construct(expr)
        cd = group.conjugacy_classes()
        k = len(cd.reps)
        calls["added"] = 0
        spaces = _split_spaces((_class_action(cd, i) for i in order_of(cd)), k, field_of(group))
        assert len(spaces) == k, expr
        assert calls["added"] == k - 1, expr
    assert calls["eig"] > 0 and calls["dft"] > 0 and calls["rref"] == 0


def test_split_spaces_never_splits_a_scalar_action(monkeypatch):
    # a piece an action maps to a multiple of itself is kept, so every
    # piece handed to eig_split_rows or _dft_split is mixed and has at
    # least two eigen-components; each returned piece is a common eigenvector
    scalar, parts = [], []
    split, dft = chartable.eig_split_rows, chartable._dft_split

    def is_scalar(w, image, q):
        lead = int(np.argmax(w != 0))
        return np.array_equal(image * int(w[lead]) % q, w * int(image[lead]) % q)

    def checked_split(w, at, q):
        scalar.append(is_scalar(w, w @ at % q, q))
        out = split(w, at, q)
        parts.append(len(out))
        return out

    def checked_dft(pieces, sigma, wf):
        scalar.extend(is_scalar(w, w[sigma], wf.q) for w in pieces)
        out = dft(pieces, sigma, wf)
        parts.append(len(out) / len(pieces))
        return out

    monkeypatch.setattr(chartable, "eig_split_rows", checked_split)
    monkeypatch.setattr(chartable, "_dft_split", checked_dft)
    for expr in ("S(4)", "A(5)", "D(10)", "SL(2,5)", "C(2) x C(2) x C(2)"):
        group = construct(expr)
        cd = group.conjugacy_classes()
        k, q = len(cd.reps), field_of(group).q
        mats = [class_matrix(cd, i) for i in range(k)]
        spaces = _split_spaces((_class_action(cd, i) for i in order_of(cd)), k, field_of(group))
        assert len(spaces) == k, expr
        assert_common_eigenvectors(spaces, mats, q, expr)
    assert scalar and not any(scalar)
    assert min(parts) >= 2


def assert_common_eigenvectors(spaces, mats, q, name):
    # u M_i^T = omega(K_i) u = u[i] u, u normalised at the identity class
    for w in spaces:
        u = w * pow(int(w[0]), -1, q) % q
        for i, mat in enumerate(mats):
            assert np.array_equal(u @ mat.T % q, u[i] * u % q), (name, i)


def period(u, sigma, q):
    """The least d with u[sigma^d] a multiple of u, by iterating sigma."""
    lead = int(np.argmax(u != 0))
    x, d = u[sigma], 1
    while ((x * u[lead] - u * x[lead]) % q).any():
        x, d = x[sigma], d + 1
    return d


@pytest.mark.parametrize("expr, seed, periods", [
    ("C(1)", None, []),
    ("C(2)", None, [{2}]),
    ("C(2) x C(2) x C(2)", None, [{2}, {2}, {2}]),
    # the benchmark's seed-7 relabelling applies classes of orders 25, 100
    # and 200 first: 1 piece of period 25, then 25 of period 4, 100 of period 2
    ("C(200)", "7:C(200)", [{25}, {4}, {2}]),
], ids=["C(1)", "C(2)", "C(2)^3", "C(200)-seed-7"])
def test_central_split_takes_one_dft_per_period(monkeypatch, expr, seed, periods):
    # an abelian group splits by class permutations alone: no class matrix,
    # no minimal polynomial, no rref; per call every piece has one period,
    # and the DFT is taken at that period, not at the action's order
    seen, sizes, pulled = [], [], []
    dft, product = chartable._dft_split, chartable.mat_mul

    def spied(pieces, sigma, wf):
        seen.append({period(w, sigma, wf.q) for w in pieces})
        sizes.append(set())
        monkeypatch.setattr(chartable, "mat_mul", sized)
        out = dft(pieces, sigma, wf)
        monkeypatch.setattr(chartable, "mat_mul", product)
        return out

    def sized(a, b, q):
        sizes[-1].add(a.shape)
        return product(a, b, q)

    def refused(*args):
        pulled.append(args)
        raise AssertionError("called on an abelian group")

    monkeypatch.setattr(chartable, "_dft_split", spied)
    for name in ("class_matrix", "eig_split_rows"):
        monkeypatch.setattr(chartable, name, refused)
    monkeypatch.setattr(fplinalg, "rref", refused)
    group = construct(expr) if seed is None else relabel(construct(expr), seed=seed)
    table = compute_table(group)
    assert seen == periods and not pulled
    assert sizes == [{(d, d) for d in ds} for ds in periods]
    assert table.degrees == (1,) * group.order()
    assert verify_orthogonality(table)


@pytest.mark.parametrize("expr", ["D(8)", "SL(2,5)", "CentralProd(SL(2,5), C(4))"])
def test_central_then_non_central_split(monkeypatch, expr):
    # the central classes come first and split by permutation; the class
    # matrices that follow split what is left, and no size-1 class builds one
    calls = []
    dft, split, build = chartable._dft_split, chartable.eig_split_rows, chartable.class_matrix

    def spied_dft(pieces, sigma, wf):
        calls.append("dft")
        return dft(pieces, sigma, wf)

    def spied_split(w, at, q):
        calls.append("eig")
        return split(w, at, q)

    def spied_build(cd, i):
        assert cd.sizes[i] > 1, (expr, i)
        return build(cd, i)

    monkeypatch.setattr(chartable, "_dft_split", spied_dft)
    monkeypatch.setattr(chartable, "eig_split_rows", spied_split)
    monkeypatch.setattr(chartable, "class_matrix", spied_build)
    group = construct(expr)
    cd = group.conjugacy_classes()
    k, wf = len(cd.reps), field_of(group)
    spaces = _split_spaces((_class_action(cd, i) for i in order_of(cd)), k, wf)
    n_dft = calls.count("dft")
    assert n_dft and "eig" in calls and calls == ["dft"] * n_dft + ["eig"] * (len(calls) - n_dft)
    assert len(spaces) == k
    assert_common_eigenvectors(spaces, [build(cd, i) for i in range(k)], wf.q, expr)
    compute_table(group)


def test_class_permutation_is_the_class_matrix():
    # x M^T = x[sigma]: the class matrix of {z} is row sigma[j] of I in row j
    for expr in ("C(6)", "D(8)", "SL(2,5)", "CentralProd(SL(2,5), C(4))", "S(3) x C(4)"):
        for group in (construct(expr), relabel(construct(expr), seed=3)):
            cd = group.conjugacy_classes()
            central = [i for i in range(len(cd)) if cd.sizes[i] == 1]
            assert len(central) > 1, expr
            for i in central:
                sigma = class_permutation(cd, i)
                assert np.array_equal(class_matrix(cd, i), np.eye(len(cd), dtype=np.int64)[sigma])
    cd = construct("S(3)").conjugacy_classes()
    with pytest.raises(InconsistentTable, match="central"):
        class_permutation(cd, int(np.argmax(np.array(cd.sizes) > 1)))


def test_dft_split_drops_roots_no_character_takes():
    # x P = x[sigma] for a 4-cycle has the eigenvectors (1, lam, lam^2,
    # lam^3), lam^4 = 1; u = v_1 + v_i (i = 2 mod 5) has period 4 but only
    # two eigenvalues, so two of the four DFT rows are zero and are dropped
    wf = WorkingField(q=5, w=2, exponent=4)
    v1, vi = np.array([1, 1, 1, 1]), np.array([1, 2, 4, 3])
    parts = chartable._dft_split(((v1 + vi) % 5)[None, :], np.array([1, 2, 3, 0]), wf)
    multiple_of = [[not ((part * v[0] - v * part[0]) % 5).any() for v in (v1, vi)]
                   for part in parts]
    assert sorted(multiple_of) == [[False, True], [True, False]]


def test_dft_split_rejects_an_order_not_dividing_the_exponent():
    # a 3-cycle of the classes cannot act for exponent 2: the period
    # search stops at e and raises instead of looping
    wf = WorkingField(q=5, w=4, exponent=2)
    with pytest.raises(InconsistentTable, match="dividing the exponent"):
        _split_spaces([np.array([1, 2, 0])], 3, wf)
    # a 4-cycle for exponent 2: u = e_0 - e_2 has period 2 with u P^2 = -u,
    # but lam^2 = -1 has no root lam = +-1
    u = np.array([[1, 0, 4, 0]])
    with pytest.raises(InconsistentTable, match="roots of unity"):
        chartable._dft_split(u, np.array([1, 2, 3, 0]), wf)


def _similar_to_diagonal(diag: list[int], seed: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """P^-1 D P for a seeded invertible P, and P: row i of P is a left eigenvector."""
    n = len(diag)
    rng = np.random.default_rng(seed)
    det = 0
    while not det:
        p = rng.integers(0, q, size=(n, n))
        det = det_mod(p, q)
    # adjugate: entry (i, j) is the signed minor of P without row j and column i
    adj = np.array([[(-1) ** (i + j) * det_mod(np.delete(np.delete(p, j, 0), i, 1), q)
                     for j in range(n)] for i in range(n)])
    p_inv = adj * pow(det, -1, q) % q
    assert np.array_equal(p_inv @ p % q, np.eye(n, dtype=np.int64))
    return p_inv @ np.diag(diag) @ p % q, p


@pytest.mark.parametrize("diag, q", [([4, 0, 11, 2, 7, 9], 13), ([8, 3, 3, 1, 8, 3], 13),
                                     ([4, 0, 11, 2, 7, 9], 2097143)],
                         ids=["distinct", "repeated", "distinct-large-q"])
def test_eig_split_rows_eigenspaces(diag, q):
    # a large q needs every entry reduced mod q as the rows are eliminated
    a, p = _similar_to_diagonal(diag, seed=3, q=q)
    coeffs = np.random.default_rng(5).integers(1, q, size=len(diag))
    w = coeffs @ p % q          # a nonzero multiple of every left eigenvector
    parts = fplinalg.eig_split_rows(w, a, q)
    lams = []
    for part in parts:
        c = int(np.flatnonzero(part)[0])
        lam = int(part @ a[:, c]) * pow(int(part[c]), -1, q) % q
        assert not np.any((part @ a - lam * part) % q)
        lams.append(lam)
    assert lams == sorted(set(diag))
    # w lies in the span of the parts
    assert len(fplinalg.rref(np.vstack([parts, w]), q)[1]) == len(parts)
    # a w inside one eigenspace comes back as a single multiple of itself
    lam = diag[1]
    v = sum(c * row for c, row, d in zip(coeffs, p, diag) if d == lam) % q
    (part,) = fplinalg.eig_split_rows(v, a, q)
    c = int(np.flatnonzero(v)[0])
    assert not np.any((part[c] * v - v[c] * part) % q) and part[c]


def _int_product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q in Python ints, a stacked along its leading axes."""
    cols = [[int(x) for x in col] for col in b.T.tolist()]
    out = [[sum(x * y for x, y in zip(row, col)) % q for col in cols]
           for row in a.reshape(-1, a.shape[-1]).tolist()]
    return np.array(out, dtype=np.int64).reshape(a.shape[:-1] + b.shape[1:])


@pytest.mark.parametrize("q", [2097143, 2097169], ids=["below", "above"])
@pytest.mark.parametrize("shape", [(2048,), (3, 2048), (2, 3, 2048)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("b_dtype", [np.int64, np.float64], ids=["int", "float"])
def test_mat_mul_is_exact_at_the_float_bound(q, shape, b_dtype):
    # (q - 1)^2 * 2048 is just below 2^53 for the first prime (float64
    # products) and just above it for the second (exact fallback), where
    # entries this close to q - 1 give sums past 2^53 that float64 would
    # round; b as float64 is a class matrix converted once, as
    # _split_spaces hands it on
    n = shape[-1]
    assert ((q - 1) ** 2 * n < 2 ** 53) == (q < 2 ** 21)
    rng = np.random.default_rng(q)
    a = rng.integers(q - 4, q, size=shape, dtype=np.int64)
    b = rng.integers(q - 4, q, size=(n, 4), dtype=np.int64)
    a.reshape(-1, n)[0] = q - 1             # one full sum of (q - 1)^2 terms
    b[:, 0] = q - 1
    got = fplinalg.mat_mul(a, b.astype(b_dtype), q)
    assert got.dtype == np.int64
    assert np.array_equal(got, _int_product(a, b, q))


def test_eig_split_rows_rejects_a_non_diagonalizable_action():
    # w = e_0 under a Jordan block: minimal polynomial (x - 1)^2, one root
    at = np.array([[1, 1], [0, 1]], dtype=np.int64)
    with pytest.raises(InconsistentTable, match="diagonalizable"):
        fplinalg.eig_split_rows(np.array([1, 0], dtype=np.int64), at, 13)


# -- tables --------------------------------------------------------------------------

def test_degrees_alt5():
    assert list(table_of("A(5)").degrees) == [1, 3, 3, 4, 5]


def test_degrees_psl27():
    assert list(table_of("PSL(2,7)").degrees) == [1, 3, 3, 6, 7, 8]


def test_degrees_sl25():
    assert list(table_of("SL(2,5)").degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_degrees_cyclic():
    t = table_of("C(5)")
    assert list(t.degrees) == [1] * 5


def test_degrees_larger_linear_groups():
    # classical degree lists for the bigger constructors
    assert list(table_of("SL(2,7)").degrees) == \
        [1, 3, 3, 4, 4, 6, 6, 6, 7, 8, 8]
    assert list(table_of("PSL(2,9)").degrees) == [1, 5, 5, 8, 8, 9, 10]
    assert list(table_of("SL(2,9)").degrees) == \
        [1, 4, 4, 5, 5, 8, 8, 8, 8, 9, 10, 10, 10]


def test_trivial_group_table():
    t = table_of("C(1)")
    assert list(t.degrees) == [1]
    assert verify_orthogonality(t)


def test_table_shape_invariants():
    for expr in ("S(4)", "A(5)", "SL(2,5)", "D(9)", "Aff(13,4)", "C(8)"):
        t = table_of(expr)
        order = t.group.order()
        assert t.n_classes == len(t.class_data.reps)
        assert sum(d * d for d in t.degrees) == order
        assert all(order % d == 0 for d in t.degrees)
        assert list(t.values_mod_q[0]) == [1] * t.n_classes
        assert [int(v) for v in t.values_mod_q[:, 0]] == list(t.degrees)
        # rows are linearly independent mod q
        assert det_mod(t.values_mod_q, t.q_field.q) != 0


def test_lift_trivial_character():
    t = table_of("S(4)")
    assert lifted(t)[0] == (((0, 1),),) * t.n_classes


def test_lift_cyclic3_linear_values():
    t = table_of("C(3)")
    e = t.q_field.exponent
    gen_class = next(j for j in range(3) if t.class_data.element_orders[j] == 3)
    for row in (1, 2):
        vals = lifted(t)[row][gen_class]
        assert len(vals) == 1
        l, m = vals[0]
        assert m == 1 and l in {e // 3, 2 * e // 3}


def test_lift_sums_to_degree():
    for expr in ("A(5)", "SL(2,3)", "D(7)"):
        t = table_of(expr)
        values = lifted(t)
        for r in range(t.n_classes):
            for j in range(t.n_classes):
                assert sum(m for _, m in values[r][j]) == t.degrees[r]
                # lifted value reproduces the mod-q entry
                q, w = t.q_field.q, t.q_field.w
                val = sum(m * pow(w, l, q) for l, m in values[r][j]) % q
                assert val == int(t.values_mod_q[r][j])


def test_lift_matches_numeric_diagonalization():
    # golden-ratio values of the degree-3 rows of Alt(5), tolerance 1e-6
    g = construct("A(5)")
    t = compute_table(g)
    numeric = numeric_character_rows(g)
    exact = lifted_complex_rows(t)
    assert match_rows_numeric(exact, numeric, tol=1e-6)
    # the two degree-3 rows take (1 +- sqrt 5)/2 on the 5-element classes
    five_classes = [j for j in range(5) if t.class_data.element_orders[j] == 5]
    deg3 = [r for r in range(5) if t.degrees[r] == 3]
    golden = sorted(round(exact[r][five_classes[0]].real, 6) for r in deg3)
    assert golden == [round((1 - 5 ** 0.5) / 2, 6), round((1 + 5 ** 0.5) / 2, 6)]


def test_numeric_diagonalization_more_groups():
    for expr in ("S(4)", "Aff(7,3)", "D(5)"):
        g = construct(expr)
        assert match_rows_numeric(
            lifted_complex_rows(compute_table(g)),
            numeric_character_rows(g), tol=1e-6), expr


LIFT_CASES = [(expr, seed, 0) for expr in ("C(12)", "C(60)", "C(2) x C(8)", "Aff(7,3)",
                                           "A(5)", "SL(2,5)", "D(10)", "S(4)")
              for seed in (None, 7)] + [("C(60)", None, 1), ("Aff(7,3)", None, 1)]


@pytest.mark.parametrize("expr, seed, offset", LIFT_CASES + [("C(200)", 7, 0)])
def test_lift_matches_per_class_oracle(expr, seed, offset):
    g = construct(expr) if seed is None else relabel(construct(expr), seed)
    t = compute_table(g, prime_offset=offset)
    # each distinct value once, ascending, and every one of them in some cell
    assert list(t.distinct) == sorted(set(t.distinct))
    assert t.cells.shape == (t.n_classes, t.n_classes)
    assert np.array_equal(np.unique(t.cells), np.arange(len(t.distinct)))
    oracle = per_class_lift(t.values_mod_q, t.degrees, t.class_data, t.q_field)
    assert tuple(oracle) == lifted(t)


def test_lift_catches_wrong_galois_fill():
    # swap g^2 and g^3 in the power table row of the class the DFT runs on
    t = table_of("C(5)")
    cd = t.class_data
    j = cd.element_orders.index(5)
    power_table = cd.power_table.copy()
    power_table[j, [2, 3]] = power_table[j, [3, 2]]
    power_table.flags.writeable = False
    bad = dataclasses.replace(cd, power_table=power_table)
    with pytest.raises(InconsistentTable, match=r"lifted (multiplicit|value)"):
        chartable._lift_all(t.values_mod_q, list(t.degrees), bad, t.q_field, _galois_orbits(bad))


def test_lift_catches_wrong_galois_exponent():
    # fill the classes of g^2 and g^3 with each other's exponent: only the
    # check of every class mod q can see it, the DFT block is unchanged
    t = table_of("C(5)")
    orbits = _galois_orbits(t.class_data)
    (_, orbit), = orbits[5]
    by_exponent = {a: c for c, a in orbit.items()}
    orbit[by_exponent[2]], orbit[by_exponent[3]] = 3, 2
    with pytest.raises(InconsistentTable, match="does not match its value mod q"):
        chartable._lift_all(t.values_mod_q, list(t.degrees), t.class_data, t.q_field, orbits)


def test_lift_catches_any_corrupted_value():
    t = table_of("A(5)")
    q = t.q_field.q
    for r in range(t.n_classes):
        for j in range(t.n_classes):
            values = t.values_mod_q.copy()
            values[r, j] = (values[r, j] + 1) % q
            with pytest.raises(InconsistentTable, match=r"lifted (multiplicit|value)"):
                chartable._lift_all(values, list(t.degrees), t.class_data, t.q_field,
                                    _galois_orbits(t.class_data))


@pytest.mark.parametrize("expr, rational_classes",
                         [("C(60)", 12), ("C(2) x C(2) x C(2)", 8), ("A(5)", 4)])
def test_lift_one_dft_per_rational_class(monkeypatch, expr, rational_classes):
    # C(60): one class per divisor of 60; every class of C(2)^3 is rational;
    # A(5)'s two classes of 5-cycles are Galois conjugate.  Each rational
    # class sends its linear rows through the discrete-log check and only
    # its other rows through the DFT; an abelian group has no other rows
    t = table_of(expr)
    n_linear = t.degrees.count(1)
    dft_classes, log_classes = [], []
    exponents = chartable._linear_exponents

    def counted(a, b, q):
        if a.ndim == 3:           # (row, class, power) blocks go to the DFT
            assert a.shape[0] == t.n_classes - n_linear
            dft_classes.append(a.shape[1])
        return fplinalg.mat_mul(a, b, q)

    def logged(block, *args):
        assert block.shape[0] == n_linear
        log_classes.append(block.shape[1])
        return exponents(block, *args)

    monkeypatch.setattr(chartable, "mat_mul", counted)
    monkeypatch.setattr(chartable, "_linear_exponents", logged)
    cells, distinct = chartable._lift_all(t.values_mod_q, list(t.degrees), t.class_data,
                                          t.q_field, _galois_orbits(t.class_data))
    assert distinct == t.distinct
    assert np.array_equal(cells, t.cells)
    assert sum(log_classes) == rational_classes
    assert sum(dft_classes) == (0 if n_linear == t.n_classes else rational_classes)


def test_lift_catches_any_corrupted_linear_value():
    # every row of C(6) is linear, so only the discrete-log check and the
    # final value check see these; every class is a power of the generator,
    # so each other value mod q breaks chi(g^t) = chi(g)^t somewhere.  A -1
    # turned into 1 at the class of order 2 is a square root of 1 in a
    # rational class, which only the check at the generator's powers sees
    t = table_of("C(6)")
    q = t.q_field.q
    for r in range(t.n_classes):
        for j in range(t.n_classes):
            for wrong in range(1, q):
                values = t.values_mod_q.copy()
                values[r, j] = (values[r, j] + wrong) % q
                with pytest.raises(InconsistentTable, match=r"lifted value"):
                    chartable._lift_all(values, list(t.degrees), t.class_data, t.q_field,
                                        _galois_orbits(t.class_data))


@pytest.mark.parametrize("expr, order, value", [
    # q = 7 and the cube roots of unity are 1, 2 and 4: 3 is no power of w
    ("C(3)", 3, lambda wf: 3),
    # at a class of order 2 that no element of order 4 squares to, w (of
    # order 4) passes every check of chi(g^t) = chi(g)^t, t < m
    ("C(2) x C(4)", 2, lambda wf: wf.w),
], ids=["C(3)", "C(2) x C(4)"])
def test_lift_rejects_a_value_no_root_of_unity_of_its_order(expr, order, value):
    t = table_of(expr)
    cd = t.class_data
    reached = {int(c) for i, m in enumerate(cd.element_orders) if m > order
               for c in cd.power_table[i, :m]}
    j = next(j for j, m in enumerate(cd.element_orders) if m == order and j not in reached)
    values = t.values_mod_q.copy()
    values[1, j] = value(t.q_field)
    with pytest.raises(InconsistentTable, match=r"lifted value .* no m-th root of unity"):
        chartable._lift_all(values, list(t.degrees), cd, t.q_field, _galois_orbits(cd))


# -- orthogonality ----------------------------------------------------------------

def test_orthogonality_examples():
    for expr in ("C(4)", "S(4)", "A(5)", "SL(2,5)", "PSL(2,7)"):
        assert verify_orthogonality(table_of(expr))


def test_c4_column_norms():
    t = table_of("C(4)")
    q = t.q_field.q
    v = t.values_mod_q
    inv = t.class_data.power_classes(-1)
    for j in range(4):
        norm = sum(int(v[r][j]) * int(v[r][inv[j]]) for r in range(4)) % q
        assert norm == 4 % q


@pytest.mark.parametrize("expr", ["C(4)", "S(4)", "A(5)", "SL(2,5)", "D(10)", "Aff(7,3)",
                                  "C(2) x C(8)"])
@pytest.mark.parametrize("seed", [None, 7])
def test_orthogonality_relations_mod_q(expr, seed):
    # verify_orthogonality no longer checks the mod-q table directly; both
    # relations must follow from the exact check, here in Python ints
    g = construct(expr) if seed is None else relabel(construct(expr), seed)
    t = compute_table(g)
    assert verify_orthogonality(t)
    q, order, k = t.q_field.q, g.order(), t.n_classes
    sizes = t.class_data.sizes
    v = t.values_mod_q.tolist()
    inv = t.class_data.power_classes(-1)
    for r in range(k):
        for s in range(k):
            first = sum(sizes[j] * v[r][j] * v[s][inv[j]] for j in range(k)) % q
            assert first == (order if r == s else 0) % q, (r, s)
    for j in range(k):
        for jj in range(k):
            second = sum(v[r][inv[j]] * v[r][jj] for r in range(k)) % q
            assert second == (order // sizes[j] if j == jj else 0) % q, (j, jj)


def test_mutated_table_fails_orthogonality():
    t = table_of("S(3)")
    mutated = CharTable(
        group=t.group,
        class_data=t.class_data,
        q_field=t.q_field,
        degrees=t.degrees,
        values_mod_q=t.values_mod_q.copy(),
        cells=t.cells,
        distinct=t.distinct,
    )
    mutated.values_mod_q[1][1] = (mutated.values_mod_q[1][1] + 1) % t.q_field.q
    assert not verify_orthogonality(mutated)
    assert orthogonality_failures(mutated) == [
        "lifted value does not match its value mod q at row 1, class 1"]


def _swap_two_values(lifted):
    # C(3): swap the two nontrivial values of row 1, which turns it into
    # row 2, so the norm holds and the pair (1,2) fails
    lifted[1][1], lifted[1][2] = lifted[1][2], lifted[1][1]
    return 1, 2


def _bump_multiterm_multiplicity(lifted):
    # first value with more than one term; one more copy of its first root
    r, j = next((r, j) for r, row in enumerate(lifted)
                for j, val in enumerate(row) if len(val) > 1)
    (l, m), *rest = lifted[r][j]
    lifted[r][j] = ((l, m + 1), *rest)
    return r, r


@pytest.mark.parametrize("expr, mutate", [("C(3)", _swap_two_values),
                                          ("A(5)", _bump_multiterm_multiplicity)],
                         ids=["C(3)-swap", "A(5)-bump"])
def test_exact_orthogonality_catches_bad_lift(expr, mutate):
    t = table_of(expr)
    bad_lifted = [list(row) for row in lifted(t)]
    r, s = mutate(bad_lifted)
    failures = orthogonality_failures(with_lifted(t, bad_lifted))
    assert f"exact first orthogonality fails at rows ({r},{s})" in failures
    for f in failures:
        pair = re.fullmatch(r"exact first orthogonality fails at rows \((\d+),(\d+)\)", f)
        assert pair and r in map(int, pair.groups()), f


def test_exact_orthogonality_matches_complex_gram():
    # seeded one-cell corruptions of the lifted values; the exact verdict
    # must name exactly the row pairs whose complex inner product is off
    rng = random.Random(5)
    for expr in ("S(4)", "A(5)", "D(10)", "Aff(7,3)", "C(3) x S(3)"):
        t = table_of(expr)
        order, k = t.group.order(), t.n_classes
        sizes = np.array(t.class_data.sizes)
        for _ in range(10):
            bad_lifted = [list(row) for row in lifted(t)]
            r, j = rng.randrange(1, k), rng.randrange(k)
            if rng.random() < 0.5:
                i = rng.randrange(len(bad_lifted[r][j]))
                l, m = bad_lifted[r][j][i]
                bad_lifted[r][j] = bad_lifted[r][j][:i] + ((l, m + 1),) + bad_lifted[r][j][i + 1:]
            else:
                jj = rng.randrange(k)
                bad_lifted[r][j], bad_lifted[r][jj] = bad_lifted[r][jj], bad_lifted[r][j]
            mutated = with_lifted(t, bad_lifted)
            x = np.array(lifted_complex_rows(mutated))
            gram = (x * sizes) @ x.conj().T - order * np.eye(k)
            want = [f"exact first orthogonality fails at rows ({a},{b})"
                    for a in range(k) for b in range(a, k) if abs(gram[a, b]) > 1e-6]
            assert orthogonality_failures(mutated) == want, expr


def test_exact_orthogonality_needs_more_than_the_working_prime():
    # 1 + q at the identity of row 1 leaves every entry right mod q, so one
    # Gram product mod q misses it; the primes must multiply past the bound
    t = table_of("C(3)")
    bad_lifted = [list(row) for row in lifted(t)]
    bad_lifted[1][0] = ((0, 1 + t.q_field.q),)
    assert orthogonality_failures(with_lifted(t, bad_lifted)) == [
        f"exact first orthogonality fails at rows ({r},{s})" for r, s in ((0, 1), (1, 1), (1, 2))]


def _swap_columns_1_2(t):
    # C(5): every row's values at classes 1 and 2 swapped; the Gram matrix
    # is unchanged, as all classes have size 1
    rows = [list(row) for row in lifted(t)]
    for row in rows:
        row[1], row[2] = row[2], row[1]
    return rows


def _swap_row_1_classes_1_10(t):
    # SL(2,9): row 1 is 1 on both classes, stored as 2 + z^40 + z^80 on the
    # order-3 class and as the four primitive 10th roots on the order-10 one
    rows = [list(row) for row in lifted(t)]
    rows[1][1], rows[1][10] = rows[1][10], rows[1][1]
    return rows


@pytest.mark.parametrize("expr, mutate", [("C(5)", _swap_columns_1_2),
                                          ("SL(2,9)", _swap_row_1_classes_1_10)])
def test_exact_orthogonality_rejects_non_equivariant_lift(expr, mutate):
    # every Gram entry is right, but sigma_a does not map the column of g to
    # the column of g^a, so a zero Gram product would prove nothing
    failures = orthogonality_failures(with_lifted(table_of(expr), mutate(table_of(expr))))
    assert failures
    for f in failures:
        assert re.fullmatch(r"lifted values not Galois-equivariant at row \d+, "
                            r"class \d+ under sigma_\d+", f), f


# -- the lifted values as the library reads them ---------------------------------------

@pytest.mark.parametrize("expr", ["S(4)", "A(5)", "SL(2,9)", "C(3) x S(3)"])
def test_library_paths_read_cells(expr):
    # the check, the export, the harness and the invariants all read the
    # exact values through cells and distinct
    g = construct(expr)
    check_group(g, name=expr)
    t = compute_table(g)
    assert verify_orthogonality(t)
    table_document(t)
    # G' lies in the kernel of exactly the linear characters
    derived = derived_subgroup(g)
    assert [kernel_contains(t, r, derived) for r in range(t.n_classes)] == [
        d == 1 for d in t.degrees]
    center = g.subgroup([x for x in g.elements() if not x.is_identity()
                         and all(x * h == h * x for h in g.generators)])
    for lam in central_linear_characters(t, center):
        assert acd_pprime_over_central(t, center, lam, 7) >= 1


# -- determinism and prime independence ----------------------------------------------

def test_prime_independence_sample():
    for expr in ("A(5)", "S(4)", "C(12)", "D(10)", "Aff(7,3)"):
        g = construct(expr)
        t0 = compute_table(g, prime_offset=0)
        t1 = compute_table(g, prime_offset=1)
        assert t0.q_field.q != t1.q_field.q
        assert t0.degrees == t1.degrees
        assert lifted(t0) == lifted(t1)


def test_table_document_deterministic():
    a = table_document(compute_table(construct("D(6)")))
    b = table_document(compute_table(construct("D(6)")))
    assert a == b
    assert a["q"] and a["degrees"] == [1, 1, 1, 1, 2, 2]
