from fractions import Fraction

import pytest

from chartab import (FieldSpec, acd_pprime_over_central,
                     average_degree, central_linear_characters, construct,
                     degree_counts, irr_pprime, n_d_relative, relative_rows)
from chartab.groupspec import construct_cached
from chartab.invariants import selected_rows

from helpers import normal_closure, table_of


def sl25_center():
    g = construct_cached("SL(2,5)")
    z = [x for x in g.elements()
         if not x.is_identity() and all(x * h == h * x for h in g.generators)]
    assert len(z) == 1
    return g.subgroup(z)


# -- row selections -----------------------------------------------------------

def test_irr_pprime_alt5():
    t = table_of("A(5)")
    rows = irr_pprime(t, 2)
    assert sorted(t.degrees[r] for r in rows) == [1, 3, 3, 5]


def test_irr_pprime_p_not_dividing_order():
    t = table_of("S(4)")
    assert irr_pprime(t, 7) == tuple(range(5))


def test_irr_pprime_rational_c3():
    t = table_of("C(3)")
    assert irr_pprime(t, 5, FieldSpec.rational()) == (0,)


def test_irr_pprime_rejects_composite():
    with pytest.raises(ValueError):
        irr_pprime(table_of("S(4)"), 6)


# -- averages -------------------------------------------------------------------

@pytest.mark.parametrize("expr,p,field,value", [
    ("A(4)", 2, FieldSpec.all(), Fraction(3, 2)),
    ("S(3)", 3, FieldSpec.all(), Fraction(4, 3)),
    ("A(5)", 2, FieldSpec.all(), Fraction(3)),
    ("SL(2,5)", 2, FieldSpec.all(), Fraction(3)),
    ("SL(2,5)", 3, FieldSpec.all(), Fraction(3)),
    ("A(5)", 5, FieldSpec.all(), Fraction(11, 4)),
    ("A(5)", 7, FieldSpec.all(), Fraction(16, 5)),
    ("D(7)", 7, FieldSpec.all(), Fraction(8, 5)),
    ("Aff(7,3)", 7, FieldSpec.cyclotomic(7), Fraction(7, 3)),
    ("S(4)", 2, FieldSpec.rational(), Fraction(2)),
])
def test_acd_exact_values(expr, p, field, value):
    assert average_degree(table_of(expr), p, field) == value


def test_acd_dihedral_conjecture_values():
    for p in (3, 5, 7, 11, 13):
        assert average_degree(table_of(f"D({p})"), p, FieldSpec.all()) == \
            Fraction(2 * p + 2, p + 3)


def test_acd_is_plain_average_for_coprime_p():
    for expr in ("S(4)", "A(5)", "D(9)"):
        t = table_of(expr)
        p = 101  # way above any degree
        assert average_degree(t, p, FieldSpec.all()) == \
            average_degree(t, None, FieldSpec.all())


def test_acd_one_iff_all_linear():
    assert average_degree(table_of("C(12)"), 5, FieldSpec.all()) == 1
    # odd degrees are {1, 1}
    assert average_degree(table_of("S(3)"), 2, FieldSpec.all()) == 1
    assert average_degree(table_of("S(4)"), 3, FieldSpec.all()) > 1


def test_degree_profile_s4():
    t = table_of("S(4)")
    assert average_degree(t, 2, FieldSpec.all()) == Fraction(2)
    assert degree_counts(t) == {1: 2, 2: 1, 3: 2}
    rows = selected_rows(t, 2, FieldSpec.all())
    assert sorted(t.degrees[r] for r in rows) == [1, 1, 3, 3]
    assert degree_counts(t, rows) == {1: 2, 3: 2}


# -- relative counts ----------------------------------------------------------------

def test_relative_counts_sl25_over_center():
    t = table_of("SL(2,5)")
    z = sl25_center()
    assert n_d_relative(t, z, 2) == 2
    assert n_d_relative(t, z, 4) == 1
    assert n_d_relative(t, z, 6) == 1
    rows = relative_rows(t, z)
    assert sorted(t.degrees[r] for r in rows) == [2, 2, 4, 6]


def test_relative_rows_trivial_subgroup():
    t = table_of("SL(2,5)")
    g = t.group
    assert relative_rows(t, g.subgroup([])) == ()


@pytest.mark.parametrize("expr,seed_cycles", [
    ("SL(2,5)", None),                   # center
    ("S(4)", "(0 1)(2 3)"),              # V4
    ("A(4)", "(0 1)(2 3)"),              # V4
    ("D(6)", "(0 3)(1 4)(2 5)"),         # center of D6
    ("C(12)", "(0 3 6 9)(1 4 7 10)(2 5 8 11)"),
])
def test_kernel_partition(expr, seed_cycles):
    # n_d(G) = n_d(G/N) + n_d(G|N) for every d
    from chartab import compute_table, parse_cycles
    g = construct_cached(expr)
    t = table_of(expr)
    if seed_cycles is None:
        n = sl25_center()
    else:
        n = normal_closure(g, [parse_cycles(seed_cycles, g.degree)])
    quotient_table = compute_table(g.quotient_by(n))
    nd_g = degree_counts(t)
    nd_q = degree_counts(quotient_table)
    for d in set(nd_g) | set(nd_q):
        assert nd_g.get(d, 0) == nd_q.get(d, 0) + n_d_relative(t, n, d)


def test_kernel_contains_basics():
    t = table_of("S(4)")
    g = t.group
    v4 = normal_closure(g, [__import__("chartab").parse_cycles("(0 1)(2 3)", 4)])
    # the two linear rows and the degree-2 row factor through S4/V4 = S3
    kers = [r not in relative_rows(t, v4) for r in range(5)]
    assert sum(kers) == 3
    assert [t.degrees[r] for r in range(5) if kers[r]] == [1, 1, 2]


# -- central characters ----------------------------------------------------------------

def test_over_central_sl25():
    t = table_of("SL(2,5)")
    z = sl25_center()
    lams = central_linear_characters(t, z)
    assert len(lams) == 2
    by_kind = {}
    for lam in lams:
        nontrivial = any(v % t.q_field.exponent for v in lam.values())
        by_kind["nontrivial" if nontrivial else "trivial"] = lam
    assert acd_pprime_over_central(t, z, by_kind["trivial"], 7) == Fraction(16, 5)
    assert acd_pprime_over_central(t, z, by_kind["nontrivial"], 7) == Fraction(7, 2)
    # both sit at or above 16/5
    for lam in lams:
        assert acd_pprime_over_central(t, z, lam, 7) >= Fraction(16, 5)


def test_over_central_trivial_subgroup():
    t = table_of("SL(2,5)")
    g = t.group
    triv = g.subgroup([])
    lam = {g.identity(): 0}
    for p in (2, 3, 7):
        assert acd_pprime_over_central(t, triv, lam, p) == \
            average_degree(t, p, FieldSpec.all())


def test_over_central_validation():
    t = table_of("SL(2,5)")
    g = t.group
    z = sl25_center()
    noncentral = g.subgroup([g.generators[0]])
    with pytest.raises(ValueError):
        acd_pprime_over_central(t, noncentral, {}, 7)
    bad_pattern = {x: 1 for x in z.elements()}  # not a homomorphism
    with pytest.raises(ValueError):
        acd_pprime_over_central(t, z, bad_pattern, 7)


def test_central_characters_require_cyclic():
    g = construct("C(2) x C(2)")
    t = table_of("C(2) x C(2)")
    with pytest.raises(ValueError):
        central_linear_characters(t, g)
