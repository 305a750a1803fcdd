import random
import time
import tracemalloc
from math import factorial, gcd

import numpy as np
import pytest

from chartab import (DenseCapExceeded, NotNormal, Permutation, construct,
                     default_primes, parse_cycles)
from chartab.arith import (check_prime, element_of_order, is_prime,
                           prime_factors, unit_generators)
from chartab.chartable import compute_table
from chartab.groupspec import construct_cached
from chartab.invariants import has_normal_p_complement, is_solvable

from chartab import permgroup
from chartab.perm import compose, point_dtype
from chartab.permgroup import MEMORY_BUDGET, PermGroup, StabilizerChain

from helpers import (TABLES_GROUPS, brute_class_map, brute_conjugacy_sizes,
                     brute_has_normal_p_complement, brute_mulclose,
                     brute_normal_closure, central_product_coset_count,
                     chain_hash, class_hash, closure_has_normal_p_complement,
                     derived_series, normal_closure, product_sift, relabel,
                     series_is_solvable, sl25_matrix_order)


# -- construction and orders ---------------------------------------------------

def test_alt5_order_and_degree():
    g = construct("A(5)")
    assert g.order() == 60 and g.degree == 5


def test_sl25_order_matches_matrix_enumeration():
    assert construct("SL(2,5)").order() == sl25_matrix_order() == 120
    assert construct("SL(2,5)").degree == 24


def test_aff_orders():
    assert construct("Aff(7,3)").order() == 21
    assert construct("Aff(7,3)").degree == 7


def test_group_order_examples():
    assert construct("S(4)").order() == 24
    assert construct("C(1)").order() == 1
    assert construct("CentralProd(SL(2,5), C(4))").order() == 240
    assert central_product_coset_count(2) == 240


def test_dihedral_small_orders():
    for n in (1, 2, 3, 7, 12):
        assert construct(f"D({n})").order() == 2 * n


# -- dense enumeration ----------------------------------------------------------

def test_enumerate_elements():
    assert len(construct("C(6)").elements()) == 6
    assert len(construct("A(5)").elements()) == 60
    for expr in ("C(1)", "C(6)", "A(5)", "D(10)", "Aff(7,3)", "S(3) x C(4)",
                 "CentralProd(SL(2,5), C(4))"):
        g = construct(expr)
        elems = g.elements()
        assert list(elems) == sorted(elems), expr
        assert len(elems) == g.order(), expr
        assert set(elems) == brute_mulclose(g.generators or (g.identity(),)), expr


# C(300) has points above 255, where little-endian row bytes would not
# sort in tuple order
@pytest.mark.parametrize("expr", ["C(1)", "C(6)", "A(5)", "D(10)", "Aff(7,3)", "S(3) x C(4)",
                                  "CentralProd(SL(2,5), C(4))", "C(300)"])
@pytest.mark.parametrize("relabelled", [False, True])
def test_element_rows_match_elements(expr, relabelled):
    g = construct(expr)
    if relabelled:
        g = relabel(g, 7)
    rows = g.element_rows()
    assert rows.dtype == np.int32 and rows.shape == (g.order(), g.degree)
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = rows[0, 0]
    assert rows.tolist() == [list(p.images) for p in g.elements()]
    as_tuples = [tuple(r) for r in rows.tolist()]
    assert as_tuples == sorted(as_tuples) and len(set(as_tuples)) == len(as_tuples)
    assert g.element_rows() is rows


def test_enumeration_cap(monkeypatch):
    g = construct("S(9)")
    # order is still available through the stabilizer chain
    assert g.order() == 362880
    products = 0
    multiply = Permutation.__mul__

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return multiply(a, b)

    monkeypatch.setattr(Permutation, "__mul__", counting_mul)
    with pytest.raises(DenseCapExceeded):
        g.elements()  # 362880 > 200000
    assert products == 0  # refused from the chain's order, before enumerating


def test_elements_stable_order():
    a = construct("S(4)").elements()
    b = construct("S(4)").elements()
    assert a == b


def test_closure_on_random_pairs():
    rng = random.Random(0)
    for expr in ("S(4)", "A(5)", "SL(2,3)", "D(10)", "Aff(7,3)"):
        g = construct_cached(expr)
        elems = g.elements()
        store = set(elems)
        for _ in range(1000):
            x = elems[rng.randrange(len(elems))]
            y = elems[rng.randrange(len(elems))]
            assert x * y in store


def test_chain_levels_keep_one_table_of_inverse_representatives():
    # the row transversal[x] of the table carries x back to the level's base point
    for expr in ("S(6)", "A(7)", "D(10)", "SL(2,5)", "C(12)"):
        g = construct(expr)
        for lvl in g.chain.levels:
            assert not hasattr(lvl, "inverses")
            rows = lvl.table.tolist()
            assert all(rows[r][x] == lvl.point for x, r in lvl.transversal.items()), expr
            assert all(Permutation(v) in g for v in rows), expr


def test_chain_tables_are_read_only_point_dtype_arrays():
    # one (orbit, degree) array per level in the narrowest dtype that holds
    # the points, rows in discovery order; C(256) and C(257) sit on either
    # side of the uint8/uint16 boundary
    for expr, dtype in (("S(6)", np.uint8), ("A(7)", np.uint8), ("D(10)", np.uint8),
                        ("SL(2,5)", np.uint8), ("C(12)", np.uint8), ("PSL(2,7)", np.uint8),
                        ("C(256)", np.uint8), ("C(257)", np.uint16)):
        g = relabel(construct(expr), 7)
        assert point_dtype(g.degree) == dtype, expr
        for lvl in g.chain.levels:
            table = lvl.table
            assert isinstance(table, np.ndarray) and table.dtype == dtype, expr
            assert table.shape == (len(lvl.transversal), g.degree), expr
            assert not table.flags.writeable, expr
            assert sorted(lvl.transversal.values()) == list(range(len(table))), expr
            assert lvl.transversal[lvl.point] == 0, expr
            assert table[0].tolist() == list(range(g.degree)), expr
            for x, r in lvl.transversal.items():
                assert table[r, x] == lvl.point, expr
                assert sorted(table[r].tolist()) == list(range(g.degree)), expr
    # C(2000)'s one table holds its 2000 x 2000 points in 2 bytes each
    (lvl,) = construct("C(2000)").chain.levels
    assert lvl.table.dtype == np.uint16 and lvl.table.nbytes == 2 * 2000 * 2000


def test_chain_tables_match_a_fresh_search():
    # a level's table is rebuilt as generators arrive, keeping the rows of
    # points reached along the same tree edges as before; one search over
    # its final generators, v_img = s^-1 * v_pt, gives the same rows in the
    # same order
    for expr in ("S(6)", "A(7)", "D(10)", "SL(2,5)", "PSL(2,7)", "S(3) x C(4)"):
        for g in (construct(expr), relabel(construct(expr), 7)):
            for lvl in g.chain.levels:
                rows, edges, queue = {lvl.point: g.identity()}, [], [lvl.point]
                for pt in queue:
                    for gi, s in enumerate(lvl.gens):
                        img = s.images[pt]
                        if img not in rows:
                            rows[img] = s.inverse() * rows[pt]
                            edges.append((pt, gi))
                            queue.append(img)
                assert list(lvl.transversal) == list(rows), expr
                assert lvl.table.tolist() == [list(v.images) for v in rows.values()], expr
                assert list(lvl.tree_edges) == edges, expr


def test_chain_order_leaves_few_sift_tuples():
    # a cyclic group's one level is a path whose only non-tree Schreier
    # generator passes the table test: its build sifts nothing, so the
    # sift entries (image tuples at this degree) of its 2000 table rows are
    # never built
    g = construct("C(2000)")
    assert g.order() == 2000
    (lvl,) = g.chain.levels
    assert len(lvl.transversal) == 2000 and len(lvl.entries) <= 2


def _refuse_cyclic_chain(n: int, traced: bool) -> tuple[float, int]:
    """Seconds taken to refuse C(n)'s chain, and the tracemalloc peak of it
    when traced (numpy reports its allocations to tracemalloc)."""
    g = construct(f"C({n})")
    if traced:
        tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(DenseCapExceeded, match=rf"MEMORY_BUDGET \({MEMORY_BUDGET} bytes\)"):
            g.order()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return time.perf_counter() - started, peak


def test_chain_over_the_memory_budget_is_refused_before_its_table():
    # C(n) has one level of n points, so its coset table would take 4 * n * n
    # bytes, 1.6e9 for C(20000); the search stops as soon as the orbit has
    # more points than the budget leaves rows for, so C(1000000) is refused
    # after 135 of its million points
    assert 4 * 20000 ** 2 > MEMORY_BUDGET >= 4 * 3000 ** 2
    seconds, peak = _refuse_cyclic_chain(20000, traced=True)
    assert seconds < 1.0
    assert peak < 50 * 2 ** 20
    # tracing the million ints of C(1000000)'s identity word alone can take
    # most of a second, so its time is taken untraced
    assert _refuse_cyclic_chain(1000000, traced=False)[0] < 1.0
    assert _refuse_cyclic_chain(1000000, traced=True)[1] < 100 * 2 ** 20


def test_dense_store_over_the_memory_budget_is_refused_before_it_exists(monkeypatch):
    # with a 1 MiB budget C(400)'s chain (400 rows of 400 points, charged
    # 4 bytes each) fits, but its dense store, charged 8 * 400 * (400 + 2)
    # bytes, does not; the refusal comes from the chain's order and builds
    # nothing
    budget = 1 << 20
    monkeypatch.setattr(permgroup, "MEMORY_BUDGET", budget)
    assert 4 * 400 * 400 <= budget < 8 * 400 * 402
    g = construct("C(400)")
    assert g.order() == 400
    tracemalloc.start()
    try:
        for dense in (g.element_rows, g.conjugacy_classes, g.elements):
            with pytest.raises(DenseCapExceeded, match=rf"MEMORY_BUDGET \({budget} bytes\)"):
                dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    # C(300)'s store, charged 8 * 300 * 302 bytes, fits the same budget
    assert construct("C(300)").element_rows().shape == (300, 300)


# base points, orbit sizes and strong generators per level, which skipping
# the orbit-tree edges' Schreier generators must leave as they are
CHAIN_SHAPES = {
    "S(4)": [(0, 4, ["(0 1)", "(1 2 3)", "(2 3)"]), (1, 3, ["(1 2 3)", "(2 3)"]),
             (2, 2, ["(2 3)"])],
    "A(5)": [(0, 5, ["(0 1 2)", "(2 3 4)", "(1 3 4)"]), (2, 4, ["(2 3 4)", "(1 3 4)"]),
             (1, 3, ["(1 3 4)"])],
    "D(10)": [(0, 10, ["(0 1 2 3 4 5 6 7 8 9)", "(1 9)(2 8)(3 7)(4 6)"]),
              (1, 2, ["(1 9)(2 8)(3 7)(4 6)"])],
    "C(50)": [(0, 50, ["(" + " ".join(map(str, range(50))) + ")"])],
}


@pytest.mark.parametrize("expr", sorted(CHAIN_SHAPES))
def test_chain_shape_unchanged_by_tree_edge_skip(expr):
    g = construct(expr)
    chain = StabilizerChain(list(g.generators), g.degree)
    got = [(lvl.point, len(lvl.transversal), [s.cycle_string() for s in lvl.gens])
           for lvl in chain.levels]
    assert got == CHAIN_SHAPES[expr]


def test_chain_tree_edges_give_identity_schreier_generators():
    for expr in ("S(6)", "A(7)", "D(10)", "SL(2,5)", "C(12)"):
        g = construct(expr)
        for lvl in g.chain.levels:
            assert len(lvl.tree_edges) == len(lvl.transversal) - 1, expr
            v = {x: Permutation(lvl.table[r].tolist()) for x, r in lvl.transversal.items()}
            for pt, gi in lvl.tree_edges:
                s = lvl.gens[gi]
                schreier = v[pt].inverse() * s * v[s.images[pt]]
                assert schreier.is_identity(), expr


@pytest.fixture
def sifts(monkeypatch):
    """(start level, word) of every sift a stabilizer chain makes: generators
    are sifted from level 0, Schreier generators from below their level.
    Every chain sift goes through the sift that permgroup imports."""
    recorded = []
    original = permgroup.sift

    def recording(word, levels, start=0):
        recorded.append((start, word))
        return original(word, levels, start)

    monkeypatch.setattr(permgroup, "sift", recording)
    return recorded


def test_chain_close_skips_tree_edges(sifts):
    # C(50)'s orbit tree is the path 0 -> 1 -> ... -> 49; only the edge
    # 49 -> 0 closes a cycle, so at most one Schreier generator is sifted
    # (none is: its generator passes the table test); the generator's own
    # sift shows that the spy sees the chain's sifts
    g = construct("C(50)")
    StabilizerChain(list(g.generators), g.degree)
    assert [start for start, _ in sifts if start == 0] == [0]
    assert len([w for start, w in sifts if start > 0]) <= 1


def test_chain_close_sifts_no_identity_schreier_generator(sifts):
    # D(10)'s reflection alone gives 8 identity Schreier generators at level 0;
    # the Schreier generators that fail the table test are all sifted
    for expr, least in (("D(10)", 4), ("S(6)", 70), ("SL(2,5)", 23)):
        g = construct(expr)
        sifts.clear()
        chain = StabilizerChain(list(g.generators), g.degree)
        assert chain.order() == g.order(), expr
        schreier = [w for start, w in sifts if start > 0]
        assert len(schreier) >= least, expr
        assert all(type(w) is type(chain.identity) and len(w) == g.degree
                   for w in schreier), expr
        assert chain.identity not in schreier, expr


def test_schreier_identity_test_matches_the_product():
    # v_pt^-1 * s * v_s(pt) is the identity exactly when s * v_s(pt) == v_pt
    outcomes = set()
    for expr in ("S(6)", "A(7)", "D(10)", "SL(2,5)"):
        for lvl in construct(expr).chain.levels:
            table = {x: tuple(lvl.table[r].tolist()) for x, r in lvl.transversal.items()}
            for pt in table:
                for gi, s in enumerate(lvl.gens):
                    if (pt, gi) in lvl.tree_edges:
                        continue
                    w = table[s.images[pt]]
                    trivial = compose(s.images, w) == table[pt]
                    product = Permutation(table[pt]).inverse() * s * Permutation(w)
                    assert trivial == product.is_identity(), expr
                    outcomes.add(trivial)
    assert outcomes == {False, True}


# chain_hash at the commit before the Schreier generators' identity test
# moved onto the coset table: (plain, relabelled with seed 7); the
# chain_query groups S(16), A(12) and S(10) at the commit before the coset
# tables became image tuples; the chain_build groups C(1000) and D(1000) at
# the commit before they became int32 arrays
CHAIN_HASHES = {
    "C(200)": ("91d6a2a312114788", "262de9ddcbf92ecf"),
    "D(100)": ("15b80632107e1663", "e22974a4319eac2a"),
    "S(8)": ("e0ade1fea689bbd4", "ede77983dec16eaf"),
    "A(8)": ("3934b1d783fc2196", "288a212c89e3a198"),
    "SL(2,9)": ("e7d9e6774708e09e", "5fe4d1af72f05635"),
    "PSL(2,9)": ("a2dd17b3587f8c3b", "f6ed43836177b482"),
    "S(16)": ("8ef14ace14e48154", "26eb45d3728c562f"),
    "A(12)": ("fdd5eaf1319fddad", "b7182b6e0d39624b"),
    "S(10)": ("57326100ef54cf97", "27cc2ff66e99cd28"),
    "C(1000)": ("f976cff479cc3cd2", "2e841f99564741d8"),
    "D(1000)": ("64fd1236d40e0997", "43470abfb29441a1"),
}


@pytest.mark.parametrize("expr", sorted(CHAIN_HASHES))
def test_chain_hashes_pinned(expr):
    g = construct(expr)
    assert (chain_hash(g.chain), chain_hash(relabel(g, 7).chain)) == CHAIN_HASHES[expr]


# class_hash of each group and of its relabelling by seed 7: the class order,
# sizes, element orders, power maps and class matrices stay exactly these
CLASS_HASHES = {
    "A(5)": ("094c2cf6546525e1", "094c2cf6546525e1"),
    "S(7)": ("598866a2525b5c47", "598866a2525b5c47"),
    "A(8)": ("768540ab33a00755", "768540ab33a00755"),
    "SL(2,9)": ("04d8e2e87178da92", "c4e7c75b4e9ff6f9"),
    "D(200)": ("2683573d4ec06cd8", "6a22cdfd42353e5d"),
    "C(2) x C(2) x C(2) x C(2) x C(2) x C(2) x C(2)": ("033ead2e7022bc94", "033ead2e7022bc94"),
    "C(200)": ("2837b967fc88a74f", "14f270071b302f45"),
    "S(3) x C(4)": ("82ff999ebf84dde9", "48ee314b63b8b37c"),
    "CentralProd(SL(2,5), C(4))": ("dda256c2c8a88cc2", "49a46e0264cf36e3"),
    "C(1)": ("1665e9b4539aef70", "1665e9b4539aef70"),
}


@pytest.mark.parametrize("expr", sorted(CLASS_HASHES))
def test_class_hashes_pinned(expr):
    g = construct(expr)
    assert (class_hash(g), class_hash(relabel(g, 7))) == CLASS_HASHES[expr]


def test_chain_closure_forms_few_schreier_generators(sifts):
    # nearly all of D(50)'s Schreier generators are the identity, which the
    # coset table shows without forming them; only the others are sifted
    g = construct("D(50)")
    sifts.clear()
    chain = StabilizerChain(list(g.generators), g.degree)
    assert chain.order() == 100 and 4 <= len([w for start, w in sifts if start > 0]) <= 7


def test_chain_build_makes_a_permutation_only_per_strong_generator(monkeypatch):
    # orbits, coset tables and Schreier tests stay image tuples: S(8)'s
    # chain has 35 orbit points and 10 strong generators
    g = construct("S(8)")
    built = []
    init = Permutation.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Permutation, "__init__", counted)
    chain = StabilizerChain(list(g.generators), 8)
    strong = {id(s) for lvl in chain.levels for s in lvl.gens}
    assert sum(len(lvl.transversal) for lvl in chain.levels) == 35
    assert len(built) == len(strong) == 10


@pytest.mark.parametrize("degree", [0, 1])
def test_membership_at_degree_zero_and_one(degree):
    # the only permutation of these degrees is the identity, and the chain
    # has no levels, so sifting composes nothing
    g = PermGroup([], degree)
    assert g.chain.levels == []
    assert Permutation.identity(degree) in g
    assert Permutation.identity(degree + 1) not in g
    assert parse_cycles("(0 1)", 2) not in g
    if degree:
        assert Permutation.identity(0) not in g


def test_membership_builds_no_permutation(monkeypatch):
    g = construct("A(7)")
    rng = random.Random(5)
    queries = []
    for _ in range(100):
        images = list(range(7))
        rng.shuffle(images)
        queries.append(Permutation(images))
    # the even permutations: a k-cycle is a product of k - 1 transpositions
    expected = [sum(len(c) - 1 for c in x.cycles()) % 2 == 0 for x in queries]
    g.order()
    built = []
    init = Permutation.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Permutation, "__init__", counted)
    assert [x in g for x in queries] == expected
    assert not built
    assert True in expected and False in expected


# C(256), C(257) and S(4) x C(252), S(4) x C(253) sit on either side of
# degree 256, where sifting moves from bytes words to image tuples
@pytest.mark.parametrize("expr", ["S(6)", "A(7)", "D(10)", "SL(2,5)", "PSL(2,7)",
                                  "C(1)", "C(2)", "C(256)", "C(257)",
                                  "S(4) x C(252)", "S(4) x C(253)"])
@pytest.mark.parametrize("relabelled", [False, True])
def test_sift_matches_product_oracle(expr, relabelled):
    g = construct(expr)
    if relabelled:
        g = relabel(g, 7)
    chain = g.chain
    gens = g.generators or (g.identity(),)
    rng = random.Random(11)
    queries = []
    for _ in range(40):
        word = g.identity()
        for _ in range(rng.randrange(12)):
            word = word * rng.choice(gens)
        queries.append(word)
    for _ in range(40):
        images = list(range(g.degree))
        rng.shuffle(images)
        queries.append(Permutation(images))
    members = 0
    for x in queries:
        for start in (0, 1):
            residue, level = chain.sift(x.images, start)
            expected, expected_level = product_sift(chain, x, start)
            assert (residue, level) == (expected.images, expected_level), expr
        member = product_sift(chain, x)[0].is_identity()
        assert (x in g) == member, expr
        members += member
    # the 40 words are members, and some shuffle is not unless G is symmetric
    assert 40 <= members < len(queries) or g.order() == factorial(g.degree), expr
    assert Permutation.identity(g.degree + 1) not in g
    if g.degree:
        assert Permutation.identity(g.degree - 1) not in g
    entry = bytes if g.degree <= 256 else tuple
    entries = [v for lvl in chain.levels for v in lvl.entries.values()]
    assert all(type(v) is entry and len(v) == max(256, g.degree) for v in entries), expr
    assert entries or g.degree <= 1, expr


# -- conjugacy classes -----------------------------------------------------------

def test_alt5_class_sizes_against_brute_force():
    g = construct_cached("A(5)")
    cd = g.conjugacy_classes()
    assert sorted(cd.sizes) == [1, 12, 12, 15, 20]
    assert brute_conjugacy_sizes(g) == [1, 12, 12, 15, 20]


def test_aff73_class_sizes_against_brute_force():
    g = construct_cached("Aff(7,3)")
    cd = g.conjugacy_classes()
    assert sorted(cd.sizes) == [1, 3, 3, 7, 7]
    assert brute_conjugacy_sizes(g) == [1, 3, 3, 7, 7]


def test_cyclic_classes_are_singletons():
    cd = construct("C(12)").conjugacy_classes()
    assert list(cd.sizes) == [1] * 12


def test_class_data_invariants():
    for expr in ("S(4)", "A(5)", "SL(2,5)", "D(9)", "Aff(13,4)"):
        g = construct_cached(expr)
        cd = g.conjugacy_classes()
        assert sum(cd.sizes) == g.order()
        assert all(g.order() % s == 0 for s in cd.sizes)
        assert cd.sizes[0] == 1 and cd.reps[0].is_identity()
        # the flat member arrays and class_of agree with brute-force orbits
        classes = brute_class_map(g, cd.reps)
        elems = g.elements()
        for j in range(len(cd.reps)):
            idx = cd.member_index[cd.member_offsets[j]:cd.member_offsets[j + 1]]
            assert sorted(elems[x] for x in idx) == sorted(
                x for x, c in classes.items() if c == j)
        assert all(cd.class_of(x) == c for x, c in classes.items())


def test_power_map_consistency():
    # power_classes(a) for any integer a: 0, negative and past the orders
    rng = random.Random(1)
    for expr in ("S(4)", "SL(2,5)", "D(15)"):
        cd = construct_cached(expr).conjugacy_classes()

        def class_power(j, a):
            return int(cd.power_classes(a)[j])

        for _ in range(50):
            j = rng.randrange(len(cd.reps))
            o = cd.element_orders[j]
            k1, k2 = rng.randrange(-2 * o, 2 * o), rng.randrange(-2 * o, 2 * o)
            jk = class_power(j, k1)
            assert class_power(jk, k2) == class_power(j, k1 * k2)
        assert cd.power_classes(0).tolist() == [0] * len(cd)
        for j in range(len(cd.reps)):
            o = cd.element_orders[j]
            if o > 1:
                assert class_power(j, 1) == j
            assert class_power(j, o) == class_power(j, -o) == 0
            assert class_power(j, -1) == class_power(j, o - 1) == class_power(j, 3 * o - 1)
            assert class_power(class_power(j, -1), -1) == j


def test_power_map_matches_permutation_powers():
    # the whole (k, max order) power table, past each rep's own order;
    # C(200)'s largest element order is no power of two, so the doubling
    # overshoots it and is cut back
    for expr in ("C(1)", "S(4)", "D(15)", "SL(2,5)", "Aff(7,3)", "S(3) x C(4)", "C(200)"):
        for group in (construct(expr), relabel(construct(expr), seed=5)):
            cd = group.conjugacy_classes()
            table = cd.power_table
            assert table.dtype == np.int32
            assert table.shape == (len(cd), max(cd.element_orders))
            classes = brute_class_map(group, cd.reps)
            for j, rep in enumerate(cd.reps):
                assert rep.order() == cd.element_orders[j]
                power, expected = group.identity(), []
                for _ in range(table.shape[1]):
                    expected.append(classes[power])
                    power = power * rep
                assert table[j].tolist() == expected, (expr, j)
            # power_classes(a) is the class of rep**a, for a below 0 and
            # at or past every element order too
            top = table.shape[1]
            for a in (-top - 1, -2, -1, 0, 1, top - 1, top, 2 * top + 1):
                assert cd.power_classes(a).tolist() == [
                    classes[rep ** a] for rep in cd.reps], (expr, a)


def test_classes_of_the_empty_base():
    # no chain levels: every base-image row is empty and has rank 0
    for group in (PermGroup([], 3), construct("C(1)")):
        cd = group.conjugacy_classes()
        assert len(cd.index.base) == 0
        assert len(cd) == 1 and cd.sizes == (1,) and cd.element_orders == (1,)
        assert cd.class_of(group.identity()) == 0


def test_class_arrays_read_only():
    g = construct("A(5)")
    cd = g.conjugacy_classes()
    index = cd.index
    arrays = [index.rows, index.base, *index.slots, *index.cosets, index.row_of_rank,
              cd.rank_class, cd.rep_index, cd.inv_base, cd.member_index, cd.member_offsets,
              cd.power_table, g.element_rows()]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert index.rows is g.element_rows()
    # each representative is the first member of its class
    firsts = g.element_rows()[cd.member_index[cd.member_offsets[:-1]]]
    assert [r.images for r in cd.reps] == [tuple(row) for row in firsts.tolist()]


# -- normal structure -------------------------------------------------------------

def test_normal_closure_s3():
    g = construct("S(3)")
    assert normal_closure(g, [parse_cycles("(0 1 2)", 3)]).order() == 3


def test_normal_closure_simple_group():
    g = construct_cached("A(5)")
    x = next(e for e in g.elements() if not e.is_identity())
    assert normal_closure(g, [x]).order() == 60


def test_normal_closure_s4_double_transposition():
    g = construct_cached("S(4)")
    seed = parse_cycles("(0 1)(2 3)", 4)
    got = normal_closure(g, [seed])
    oracle = brute_normal_closure(g, [seed])
    assert got.order() == len(oracle) == 4
    assert set(got.elements()) == set(oracle)


def test_normal_closure_rejects_outside_seed():
    g = construct("A(4)")
    with pytest.raises(ValueError):
        normal_closure(g, [parse_cycles("(0 1)", 4)])


def test_derived_series_and_solvability():
    assert not construct_cached("A(5)").is_solvable()
    assert not construct_cached("SL(2,5)").is_solvable()
    assert construct_cached("S(4)").is_solvable()
    series = derived_series(construct("C(12)"))
    assert len(series) == 2 and series[-1].order() == 1


def test_has_normal_p_complement_examples():
    s3 = construct("S(3)")
    assert s3.has_normal_p_complement(2)
    assert not s3.has_normal_p_complement(3)
    assert not construct_cached("A(4)").has_normal_p_complement(2)
    # p not dividing the order: the group is its own complement
    assert construct("S(4)").has_normal_p_complement(7)


def test_p_complement_agrees_with_brute_oracle_small():
    for expr in ("S(3)", "A(4)", "S(4)", "D(6)", "C(12)", "SL(2,3)", "Aff(5,4)"):
        g = construct_cached(expr)
        for p in (2, 3, 5):
            if g.order() % p == 0:
                assert g.has_normal_p_complement(p) == \
                    brute_has_normal_p_complement(g, p), (expr, p)


@pytest.mark.parametrize("relabelled", [False, True])
def test_p_complement_matches_normal_closure_oracle(corpus_entries, relabelled):
    # the answers read off the table against the group-side algorithms:
    # O^p(G) by normal closure, and the derived series
    cases = [(expr, default_primes(construct_cached(expr))) for expr in corpus_entries]
    cases += [(expr, (2, 3, 5, 7, 11)) for expr in TABLES_GROUPS]
    for expr, primes in cases:
        g = relabel(construct_cached(expr), 7) if relabelled else construct(expr)
        t = compute_table(g)
        assert is_solvable(t) == series_is_solvable(g), expr
        for p in primes:
            assert has_normal_p_complement(t, p) == \
                closure_has_normal_p_complement(g, p), (expr, p)


def test_p_complement_builds_no_chain(monkeypatch):
    built = []
    init = StabilizerChain.__init__

    def counted_init(self, generators, degree):
        built.append(list(generators))
        init(self, generators, degree)

    answers = {}
    for expr in ("S(3)", "S(4)", "A(5)", "SL(2,5)", "Aff(7,3)", "D(10)", "C(12)"):
        g = construct(expr)
        compute_table(g)
        with monkeypatch.context() as m:
            m.setattr(StabilizerChain, "__init__", counted_init)
            answers[expr] = [g.has_normal_p_complement(p)
                             for p in prime_factors(g.order())]
    assert not built
    assert answers["S(3)"] == [True, False] and answers["Aff(7,3)"] == [True, False]
    assert answers["A(5)"] == [False, False, False]


def test_prime_validation():
    with pytest.raises(ValueError):
        construct("S(4)").has_normal_p_complement(4)
    with pytest.raises(ValueError, match="4 is not prime"):
        check_prime(4)
    primes = [n for n in range(2000)
              if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(2000) if is_prime(n)] == primes
    for n in range(1, 2000):
        assert prime_factors(n) == [p for p in primes if n % p == 0], n
    for q in (p for p in primes if p < 200):
        for e in range(1, q):
            if (q - 1) % e == 0:
                w = element_of_order(q, e)
                assert min(t for t in range(1, e + 1) if pow(w, t, q) == 1) == e, (q, e)
    with pytest.raises(ValueError):
        element_of_order(7, 4)


def test_unit_generators_generate_the_units_one_mod_p():
    for e in range(1, 121):
        for p in [1] + prime_factors(e):
            gens = unit_generators(e, p)
            closure = {1 % e}
            while (grown := closure | {h * a % e for h in closure for a in gens}) != closure:
                closure = grown
            assert closure == {a % e for a in range(1, e + 1)
                               if gcd(a, e) == 1 and a % p == 1 % p}, (e, p)


# -- quotients ---------------------------------------------------------------------

def test_quotient_sl25_by_center():
    g = construct_cached("SL(2,5)")
    center = [x for x in g.elements()
              if not x.is_identity() and all(x * h == h * x for h in g.generators)]
    assert len(center) == 1
    q = g.quotient_by(g.subgroup(center))
    assert q.order() == 60
    assert len(q.conjugacy_classes().reps) == 5  # same class count as Alt(5)


def test_quotient_by_trivial():
    g = construct("S(3)")
    q = g.quotient_by(g.subgroup([]))
    assert q.order() == 6


def test_quotient_c12():
    g = construct("C(12)")
    n = g.subgroup([parse_cycles("(0 3 6 9)(1 4 7 10)(2 5 8 11)", 12)])
    assert g.quotient_by(n).order() == 3


def test_quotient_multiplicativity():
    g = construct_cached("S(4)")
    n = normal_closure(g, [parse_cycles("(0 1)(2 3)", 4)])
    q = g.quotient_by(n)
    assert q.order() * n.order() == g.order()


def test_quotient_rejects_non_normal():
    g = construct("S(3)")
    with pytest.raises(NotNormal):
        g.quotient_by(g.subgroup([parse_cycles("(0 1)", 3)]))
    with pytest.raises(NotNormal):
        g.quotient_by(construct("C(2)").subgroup([parse_cycles("(0 1)", 2)]))
