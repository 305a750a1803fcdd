"""Acceptance suite: one test per criterion, printing a line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from collections import Counter
from fractions import Fraction

import pytest

from chartab import (FieldSpec, PermGroup, Permutation, average_degree,
                     check_central_product, compute_table, field_rows,
                     fuzz_lemmas, relative_rows, verify_orthogonality)
from chartab.groupspec import construct_cached

from helpers import (abelian_dual_rows, brute_class_map,
                     brute_has_normal_p_complement, family_rows, lifted, table_of)

QUOT_A5 = ("Quot(SL(2,5); (0 3)(1 2)(4 19)(5 23)(6 22)(7 21)(8 20)(9 14)"
           "(10 18)(11 17)(12 16)(13 15))")


def ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


# -- 1. character tables ----------------------------------------------------------

def test_criterion_1_character_tables():
    assert list(table_of("A(5)").degrees) == [1, 3, 3, 4, 5]
    assert list(table_of("PSL(2,7)").degrees) == [1, 3, 3, 6, 7, 8]
    t = table_of("SL(2,5)")
    assert list(t.degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    g = t.group
    center = g.subgroup([x for x in g.elements()
                         if not x.is_identity()
                         and all(x * h == h * x for h in g.generators)])
    faithful = sorted(t.degrees[r] for r in relative_rows(t, center))
    assert faithful == [2, 2, 4, 6]
    ok("1", "degree lists of Alt(5), PSL(2,7), SL(2,5) (+faithful rows) exact")


# -- 2. orthogonality over the corpus ----------------------------------------------

def test_criterion_2_orthogonality(corpus_entries):
    checked = 0
    for expr in corpus_entries:
        t = table_of(expr)
        assert verify_orthogonality(t), expr
        assert sum(d * d for d in t.degrees) == t.group.order(), expr
        checked += 1
    ok("2", f"orthogonality (exact, and mod q through the lift) and sum d^2 = |G| on "
            f"{checked} corpus groups")


# -- 3. exact sharp values -----------------------------------------------------------

def test_criterion_3_sharp_values():
    cases = [
        ("A(4)", 2, Fraction(3, 2)),
        ("S(3)", 3, Fraction(4, 3)),
        ("A(5)", 2, Fraction(3)),
        ("SL(2,5)", 2, Fraction(3)),
        ("SL(2,5)", 3, Fraction(3)),
        ("A(5)", 5, Fraction(11, 4)),
        ("A(5)", 7, Fraction(16, 5)),
    ]
    for expr, p, want in cases:
        assert average_degree(table_of(expr), p, FieldSpec.all()) == want, (expr, p)
    for p in (3, 5, 7, 11, 13):
        assert average_degree(table_of(f"D({p})"), p, FieldSpec.all()) == \
            Fraction(2 * p + 2, p + 3)
    ok("3", "all exact average values match, zero tolerance")


# -- 4. theorem harness ----------------------------------------------------------------

# Flag set audited by hand for the bundled corpus.  The dihedral groups
# D(3m) carry exactly one extra rational degree-2 character (the rotation
# class of third roots of unity), giving rational/Q_p profiles {1,1,2} or
# {1,1,1,1,2,2} with average exactly 4/3; acd_R(D5) = acd_R(D10) = 3/2;
# acd_{2'} = 3 for S5 and both SL(2,5)/A5 isomorph families; S4 has
# 3'-degrees {1,1,2}; SL(2,3) has odd degrees {1,1,1,3}.
S3_CLASS = ("S(3)", "D(3)", "Aff(3,2)")
A5_CLASS = ("A(5)", "PSL(2,5)", QUOT_A5)
SL25_CLASS = ("SL(2,5)", "CentralProd(SL(2,5), C(2))")
D3M_ODD = ("D(9)", "D(15)", "D(21)", "D(27)", "D(33)", "D(39)", "D(45)")
D3M_EVEN = ("D(6)", "D(18)", "D(30)", "D(42)")

EXPECTED_SHARPNESS = set()
for _g in ("A(4)", "SL(2,3)"):
    EXPECTED_SHARPNESS.add((_g, "T1a", 2))
for _g in S3_CLASS + ("D(6)",):
    for _p in (3, 7):
        EXPECTED_SHARPNESS.add((_g, "T1b", _p))
EXPECTED_SHARPNESS.add(("S(4)", "T1b", 3))
for _g in A5_CLASS + SL25_CLASS + ("S(5)",):
    EXPECTED_SHARPNESS.add((_g, "T2i", 2))
    EXPECTED_SHARPNESS.add((_g, "T8i", 2))
for _g in SL25_CLASS:
    EXPECTED_SHARPNESS.add((_g, "T2ii", 3))
for _g in A5_CLASS:
    EXPECTED_SHARPNESS.add((_g, "T2iii", 5))
    EXPECTED_SHARPNESS.add((_g, "T2iv", 7))
for _g in ("D(5)", "Aff(5,2)", "D(10)"):
    EXPECTED_SHARPNESS.add((_g, "C4iv", 2))
for _g in S3_CLASS + D3M_ODD + D3M_EVEN:
    _extra = {"D(21)": 11, "D(42)": 11}.get(_g, 7)
    for _p in (3, _extra):
        EXPECTED_SHARPNESS.add((_g, "T3b", _p))
        EXPECTED_SHARPNESS.add((_g, "C4ii", _p))
EXPECTED_SHARPNESS.add(("S(4)", "T3b", 3))

PRIMARY_WITNESSES = {
    ("A(4)", "T1a", 2),
    ("S(3)", "T1b", 3),
    ("A(5)", "T2i", 2),
    ("SL(2,5)", "T2i", 2),
    ("SL(2,5)", "T2ii", 3),
    ("A(5)", "T2iii", 5),
    ("A(5)", "T2iv", 7),
}


def test_criterion_4_theorem_harness(corpus_summary):
    assert corpus_summary.violations == []
    flags = {(g, eid, p) for g, eid, p in corpus_summary.sharpness_witnesses}
    assert PRIMARY_WITNESSES <= flags
    assert flags == EXPECTED_SHARPNESS, (
        sorted(flags - EXPECTED_SHARPNESS), sorted(EXPECTED_SHARPNESS - flags))
    ok("4", f"0 violations over {len(corpus_summary.reports)} groups; "
            f"{len(flags)} sharpness flags match the audited witness set "
            f"(all primary witnesses present)")


# -- 5. field predicates -------------------------------------------------------------

def test_criterion_5_field_predicates():
    t4 = table_of("S(4)")
    assert len(field_rows(t4, FieldSpec.rational())) == 5
    t3 = table_of("C(3)")
    assert len(field_rows(t3, FieldSpec.rational())) == 1
    t7 = table_of("Aff(7,3)")
    q7_rows = field_rows(t7, FieldSpec.cyclotomic(7))
    assert len(q7_rows) == 3
    assert average_degree(t7, 7, FieldSpec.cyclotomic(7)) == Fraction(7, 3)
    assert average_degree(t4, 2, FieldSpec.rational()) == Fraction(2)
    ok("5", "S4 fully rational; C3 has 1 rational row; Aff(7,3) has 3 "
            "Q7-valued rows with average 7/3; rational odd average of S4 is 2")


@pytest.mark.xfail(
    strict=True,
    reason="Aff(5,4) = C5:C4 has two linear characters of order 4 with "
           "values +-i (its abelianization is C4), so only 3 of its 5 "
           "irreducible characters are rational-valued; the claimed count "
           "of 5 is arithmetically impossible.")
def test_criterion_5_aff54_rationality():
    t = table_of("Aff(5,4)")
    rational = field_rows(t, FieldSpec.rational())
    print(f"ACCEPTANCE 5 (Aff(5,4) clause): FAIL expected — rational rows "
          f"have degrees {[t.degrees[r] for r in rational]}, not all 5")
    assert len(rational) == 5


# -- 6. central product ----------------------------------------------------------------

def test_criterion_6_central_product():
    report = check_central_product()
    assert report.violations == []
    main = report.instances[0]
    assert main["n_d"]["1"] == 2
    assert main["n_d"]["2"] == 4 == 2 * main["n_d"]["1"] + main["n_2(C/Z)"]
    assert all(c["holds"] for c in main["claims"])
    ok("6", "SL(2,5) o C4: n_1 = 2, n_2 = 4 = 2*n_1 + n_2(C/Z), and all "
            "five degree-count inequalities hold")


# -- 7. lemma fuzzing -------------------------------------------------------------------

def test_criterion_7_lemma_fuzzing():
    total = 0
    for expr in ("S(4)", "A(5)", "SL(2,5)", "S(5)"):
        report = fuzz_lemmas(construct_cached(expr), trials=100, seed=20240601,
                             name=expr)
        assert report.violations == [], expr
        total += report.subgroups_tested
    ok("7", f"100 subgroup samples per group, {total} distinct subgroups, "
            "0 counterexamples to the counting inequalities")


# -- 8. oracle equivalence ----------------------------------------------------------------

def _is_abelian(group) -> bool:
    return all(a * b == b * a for a in group.generators for b in group.generators)


def test_criterion_8a_abelian_dual_oracle(corpus_entries):
    checked = 0
    for expr in corpus_entries:
        group = construct_cached(expr)
        if group.order() > 64 or not _is_abelian(group):
            continue
        table = table_of(expr)
        assert all(d == 1 for d in table.degrees)
        oracle = abelian_dual_rows(group, table.q_field.exponent)
        elems = sorted(group.elements())
        classes = brute_class_map(group, table.class_data.reps)
        values = lifted(table)
        got = set()
        for r in range(table.n_classes):
            row = []
            for x in elems:
                vals = values[r][classes[x]]
                assert len(vals) == 1 and vals[0][1] == 1
                row.append(vals[0][0])
            got.add(tuple(row))
        assert got == oracle, expr
        checked += 1
    assert checked >= 70
    ok("8a", f"BDS tables equal the word-built dual tables on {checked} "
             "abelian groups of order <= 64")


def test_criterion_8a_oracle_rejects_non_homomorphisms():
    # C(4) generated by g and g^2: 4 * 2 candidate assignments, of which
    # only the 4 with val[g^2] == 2 val[g] are characters
    g = Permutation([1, 2, 3, 0])
    group = PermGroup([g, g * g], 4)
    rows = abelian_dual_rows(group, 4)
    assert len(rows) == 4
    elems = sorted(group.elements())
    for row in rows:
        val = dict(zip(elems, row))
        assert all(val[x * y] == (val[x] + val[y]) % 4 for x in elems for y in elems)


def test_criterion_8b_prime_independence(corpus_entries):
    checked = 0
    for expr in corpus_entries:
        group = construct_cached(expr)
        if group.order() > 60:
            continue
        base = compute_table(group, prime_offset=0)
        alt = compute_table(group, prime_offset=1)
        assert alt.q_field.q > base.q_field.q
        assert alt.degrees == base.degrees, expr
        assert lifted(alt) == lifted(base), expr
        checked += 1
    ok("8b", f"recomputation with the next admissible prime matches on "
             f"{checked} groups of order <= 60")


def test_criterion_8c_family_closed_forms(corpus_summary):
    # products of cyclic groups, D(n) and Aff(p, d): the degrees, and which
    # rows are rational and real, from closed forms alone (family_rows),
    # against the harness's degree counts and exact p'-averages
    def pprime_mean(degrees, p):
        kept = [d for d in degrees if d % p]
        return Fraction(sum(kept), len(kept))

    checked = 0
    for report in corpus_summary.reports:
        rows = family_rows(report.group)
        if rows is None:
            continue
        degrees = [d for d, _, _ in rows]
        assert report.order == sum(d * d for d in degrees), report.group
        fields = {"acd_all": degrees,
                  "acd_Q": [d for d, rational, _ in rows if rational],
                  "acd_R": [d for d, _, real in rows if real]}
        for rec in report.primes:
            assert rec.n_d == Counter(degrees), (report.group, rec.p)
            for name, selected in fields.items():
                assert getattr(rec, name) == pprime_mean(selected, rec.p), \
                    (report.group, rec.p, name)
        checked += 1
    assert checked == 159
    ok("8c", f"degrees, rational and real rows and p'-averages match the closed "
             f"forms on {checked} cyclic-product, dihedral and affine groups")


# -- 9. structural oracles ----------------------------------------------------------------

def test_criterion_9_p_complement_oracle(corpus_entries):
    checked = 0
    for expr in corpus_entries:
        group = construct_cached(expr)
        order = group.order()
        if order > 100:
            continue
        divisors = []
        n, d = order, 2
        while d * d <= n:
            if n % d == 0:
                divisors.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            divisors.append(n)
        for p in divisors:
            assert group.has_normal_p_complement(p) == \
                brute_has_normal_p_complement(group, p), (expr, p)
            checked += 1
    ok("9", f"normal p-complement agrees with the elementwise p'-element "
            f"oracle on {checked} (group, prime) pairs with |G| <= 100")
