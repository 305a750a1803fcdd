from fractions import Fraction

import pytest

from chartab import (check_central_product, check_group, construct,
                     default_primes, fuzz_lemmas, parse_corpus, sharpness_scan,
                     verify_corpus)
from chartab import harness
from chartab.fields import FieldSpec, field_rows
from chartab.groupspec import construct_cached
from chartab.harness import THEOREM_CATALOG, TheoremVerdict, VerdictReport
from chartab.invariants import average_degree

from helpers import table_of


def verdict(report, entry_id, p):
    for rec in report.primes:
        if rec.p != p:
            continue
        for v in rec.verdicts:
            if v.entry_id == entry_id:
                return v
    raise AssertionError(f"no verdict {entry_id}@{p}")


def test_catalog_thresholds():
    by_id = {e.id: e for e in THEOREM_CATALOG}
    assert by_id["T1a"].threshold == Fraction(3, 2) and by_id["T1a"].relation == "<"
    assert by_id["T1b"].threshold == Fraction(4, 3)
    assert by_id["T2iii"].threshold == Fraction(11, 4)
    assert by_id["T2iv"].threshold == Fraction(16, 5)
    assert by_id["T8ii"].relation == "<=" and by_id["T8iii"].relation == "<="
    assert by_id["THOMPSON"].relation == "=="
    assert by_id["C4ii"].field_label == "Qp" and not by_id["C4ii"].pprime_filter


def test_default_primes():
    assert default_primes(construct_cached("A(5)")) == [2, 3, 5, 7]
    assert default_primes(construct_cached("S(3)")) == [2, 3, 7]
    assert default_primes(construct("C(7)")) == [7, 11]
    assert default_primes(construct("C(1)")) == [7]


def test_check_group_a4():
    rep = check_group(construct_cached("A(4)"), name="A(4)")
    v = verdict(rep, "T1a", 2)
    assert v.acd == Fraction(3, 2) and v.verdict == "vacuous" and v.sharp
    assert not rep.violations


def test_check_group_s3_thompson():
    rep = check_group(construct_cached("S(3)"), name="S(3)")
    v = verdict(rep, "THOMPSON", 2)
    assert v.acd == 1 and v.verdict == "consistent"
    assert rep.primes[0].has_normal_p_complement  # p=2: the C3 complement


def test_check_group_a5_p7():
    rep = check_group(construct_cached("A(5)"), name="A(5)")
    v = verdict(rep, "T2iv", 7)
    assert v.acd == Fraction(16, 5) and v.verdict == "vacuous" and v.sharp
    assert not rep.primes[0].is_solvable


def test_check_group_coprime_prime_equals_plain_average():
    rep = check_group(construct_cached("S(4)"))
    rec7 = [r for r in rep.primes if r.p == 7][0]
    assert rec7.acd_all == Fraction(2)  # average of all degrees of S4


def test_check_group_selects_qp_rows_only_for_primes_dividing_the_exponent(monkeypatch):
    # Q_p meets Q(zeta_e) in Q for p not dividing e, and Q's rows are held
    labels = []

    def counted(table, spec):
        labels.append(spec.label())
        return field_rows(table, spec)

    monkeypatch.setattr(harness, "field_rows", counted)
    for expr, want in (("S(4)", ["C", "Q", "R", "Q2", "Q3"]),
                       ("A(5)", ["C", "Q", "R", "Q2", "Q3", "Q5"]),
                       ("D(7)", ["C", "Q", "R", "Q2", "Q7"])):
        labels.clear()
        check_group(construct_cached(expr), name=expr)
        assert labels == want, expr


def test_conjecture_probe():
    rep = check_group(construct_cached("D(7)"))
    rec = [r for r in rep.primes if r.p == 7][0]
    assert rec.conjecture_bound == Fraction(16, 10)
    assert rec.conjecture_relation == "="


def test_verdict_report_doc_has_no_timing():
    rep = check_group(construct_cached("S(3)"), name="S(3)")
    doc = rep.to_doc()
    assert "timing" not in doc
    assert doc["order"] == 6
    rec = doc["primes"][0]
    assert set(rec) >= {"p", "acd_all", "acd_Q", "acd_Qp", "acd_R", "n_d",
                        "has_normal_p_complement", "is_solvable", "theorems"}
    assert rec["acd_Q"].count("/") == 1


def test_check_group_averages_match_average_degree(corpus_entries):
    catalog = {e.id: e for e in THEOREM_CATALOG}
    for expr in corpus_entries[::6][:30]:
        report = check_group(construct_cached(expr), name=expr)
        table = table_of(expr)
        for rec in report.primes:
            p = rec.p
            specs = {"C": FieldSpec.all(), "Q": FieldSpec.rational(),
                     "Qp": FieldSpec.cyclotomic(p), "R": FieldSpec.real()}
            got = {"C": rec.acd_all, "Q": rec.acd_Q, "Qp": rec.acd_Qp, "R": rec.acd_R}
            assert got == {label: average_degree(table, p, spec)
                           for label, spec in specs.items()}, (expr, p)
            unfiltered = [v for v in rec.verdicts if not catalog[v.entry_id].pprime_filter]
            assert {v.entry_id for v in unfiltered} <= {"C4i", "C4ii", "C4iv"}
            for v in unfiltered:
                spec = specs[catalog[v.entry_id].field_label]
                assert v.acd == average_degree(table, None, spec), (expr, p, v.entry_id)


def test_synthetic_violation_counted():
    rep = VerdictReport(group="fake", order=1, primes=[])
    assert not rep.violations
    from chartab.harness import PrimeRecord
    bad = PrimeRecord(
        p=2, acd_all=Fraction(1), acd_Q=Fraction(1), acd_Qp=Fraction(1),
        acd_R=Fraction(1), n_d={1: 1}, has_normal_p_complement=False,
        is_solvable=True,
        verdicts=[TheoremVerdict("T1a", 2, Fraction(1), "VIOLATION", False)],
        conjecture_bound=None, conjecture_relation=None)
    rep2 = VerdictReport(group="fake", order=1, primes=[bad])
    assert len(rep2.violations) == 1


# -- corpus ------------------------------------------------------------------------

def test_parse_corpus_comments_and_warnings():
    text = "# header\nC(3)  # trailing comment\n\nB(9)\nS(3)\n"
    entries, warnings = parse_corpus(text)
    assert entries == ["C(3)", "S(3)"]
    assert len(warnings) == 1 and "line 4" in warnings[0]


def test_verify_corpus_empty():
    summary = verify_corpus([])
    assert summary.reports == [] and not summary.violations


def test_verify_corpus_small_and_deterministic():
    entries = ["C(6)", "S(3)", "A(4)", "D(5)"]
    a = verify_corpus(entries, seed=3)
    b = verify_corpus(entries, seed=3)
    assert a.to_json() == b.to_json()
    assert not a.violations
    assert ("A(4)", "T1a", 2) in a.sharpness_witnesses


def test_verify_corpus_max_order_filter():
    summary = verify_corpus(["C(6)", "S(5)"], max_order=30)
    assert [r.group for r in summary.reports] == ["C(6)"]


def test_verify_corpus_jobs_merge_order():
    entries = ["C(4)", "C(5)", "S(3)", "D(4)"]
    seq = verify_corpus(entries, jobs=1)
    par = verify_corpus(entries, jobs=3)
    assert seq.to_json() == par.to_json()


def test_dihedral_prime_sharpness_scan():
    entries = [f"D({p})" for p in (3, 5, 7, 11, 13)]
    for p in (3, 5, 7, 11, 13):
        rep = check_group(construct_cached(f"D({p})"))
        rec = [r for r in rep.primes if r.p == p][0]
        assert rec.conjecture_relation == "="
        v = verdict(rep, "T1b", p)
        # at the conjectured bound: above 4/3 except for p = 3
        assert v.verdict == "vacuous" if p > 3 else v.sharp


# -- lemma fuzzing -----------------------------------------------------------------

def test_fuzz_s4_hand_example():
    # T = <a transposition>: n_1(S4) = 2 <= n_1(T) * [S4 : T] = 2 * 12
    g = construct_cached("S(4)")
    t = table_of("S(4)")
    sub = g.subgroup([__import__("chartab").parse_cycles("(0 1)", 4)])
    index = g.order() // sub.order()
    from chartab import compute_table, degree_counts
    nd_t = degree_counts(compute_table(sub))
    assert degree_counts(t).get(1, 0) <= nd_t.get(1, 0) * index


def test_fuzz_whole_group_is_tight():
    rep = fuzz_lemmas(construct_cached("S(4)"), trials=30, seed=9, name="S(4)")
    assert rep.violations == []
    assert rep.subgroups_tested >= 1


def test_fuzz_lemma91_a5_a4():
    t5 = table_of("A(5)")
    t4 = table_of("A(4)")
    irr5 = sum(1 for d in t5.degrees if d % 5)
    irr4 = sum(1 for d in t4.degrees if d % 5)
    assert irr5 == 4 and irr4 == 4
    assert irr5 <= 5 * irr4


def test_fuzz_requires_trials():
    with pytest.raises(ValueError):
        fuzz_lemmas(construct_cached("S(3)"), trials=0, seed=0)


def test_fuzz_deterministic():
    a = fuzz_lemmas(construct_cached("A(4)"), trials=25, seed=11, name="A(4)")
    b = fuzz_lemmas(construct_cached("A(4)"), trials=25, seed=11, name="A(4)")
    assert a.to_doc() == b.to_doc()


# -- central product ---------------------------------------------------------------

def test_central_product_identities():
    report = check_central_product()
    assert not report.violations
    main = report.instances[0]
    assert main["order"] == 240
    assert main["n_d"]["1"] == 2 and main["n_d"]["2"] == 4
    assert main["n_d"]["4"] == 4
    degenerate = report.instances[1]
    assert degenerate["order"] == 120
    assert degenerate["n_d"]["1"] == 1 and degenerate["n_d"]["2"] == 2


# -- sharpness scan ----------------------------------------------------------------

def test_sharpness_scan_solvability_p2():
    best, wit = sharpness_scan(["A(5)", "S(5)", "SL(2,5)", "S(4)"], 2, "solvability")
    assert best == Fraction(3)
    assert {"A(5)", "SL(2,5)"} <= set(wit)


def test_sharpness_scan_solvability_p5():
    best, wit = sharpness_scan(["A(5)", "S(5)", "SL(2,5)"], 5, "solvability")
    assert best == Fraction(11, 4) and wit == ["A(5)"]


def test_sharpness_scan_pnilpotency_p3():
    best, wit = sharpness_scan(["S(3)", "A(4)", "C(6)", "D(4)"], 3, "pnilpotency")
    assert best == Fraction(4, 3) and "S(3)" in wit


@pytest.mark.parametrize("p,mode,best,n_witnesses", [
    (2, "solvability", "3", 6),
    (5, "solvability", "11/4", 3),
    (3, "pnilpotency", "4/3", 5),
    (2, "pnilpotency", "3/2", 2),
])
def test_sharpness_scan_over_the_default_corpus(corpus_entries, p, mode, best, n_witnesses):
    # the minimum and witness count found when every group's conclusion was
    # decided, which skipping the groups whose order settles it must keep
    got, witnesses = sharpness_scan(corpus_entries, p, mode)
    assert (got, len(witnesses)) == (Fraction(best), n_witnesses)


def test_sharpness_scan_no_witnesses():
    best, wit = sharpness_scan(["C(4)", "C(9)"], 3, "solvability")
    assert best is None and wit == []


def test_sharpness_scan_mode_validation():
    with pytest.raises(ValueError):
        sharpness_scan(["C(2)"], 2, "nilpotency")
