"""Theorem-verification harness.

Encodes the statements under test as a catalog of (hypothesis threshold,
strictness, conclusion) entries, evaluates every applicable entry for
every group and prime, and aggregates verdicts:

* consistent — hypothesis holds and the concluded structure is present,
* vacuous    — hypothesis fails (nothing to check),
* VIOLATION  — hypothesis holds but the conclusion fails.

A sharpness flag is raised when the average equals a strict entry's
threshold exactly (the bound is attained, so it cannot be improved).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .arith import check_prime, is_prime, prime_factors
from .chartable import compute_table
from .fields import FieldSpec, field_rows
from .groupspec import GroupExprError, construct, parse_group_expr
from .invariants import (average_degree, degree_counts, has_normal_p_complement,
                         irr_pprime, is_solvable, mean_degree, pprime_rows)
from .perm import Permutation
from .permgroup import PermGroup

_REPORT_ENCODER = json.JSONEncoder(sort_keys=True, indent=1, separators=(",", ": "))
_JOIN_BATCH = 4096


def json_text(doc) -> str:
    """The deterministic JSON text of a report, with a trailing newline.

    The encoder yields one small string per token; joining them a batch at
    a time keeps at most one batch of them alive instead of all of them.
    """
    chunks = _REPORT_ENCODER.iterencode(doc)
    parts = []
    while batch := list(islice(chunks, _JOIN_BATCH)):
        parts.append("".join(batch))
    parts.append("\n")
    return "".join(parts)


@dataclass(frozen=True)
class TheoremEntry:
    id: str
    field_label: str            # "C", "Q", "Qp", "R"
    pprime_filter: bool         # restrict to degrees coprime to p?
    threshold: Fraction
    relation: str               # "<" | "<=" | "=="
    conclusion: str             # "p_complement" | "solvable"
    applies: str                # "p2" | "podd" | "p3" | "p5" | "pgt2" | "pgt3" | "pgt5" | "any"

    def applicable(self, p: int) -> bool:
        return {
            "p2": p == 2,
            "p3": p == 3,
            "p5": p == 5,
            "podd": p % 2 == 1,
            "pgt2": p > 2,
            "pgt3": p > 3,
            "pgt5": p > 5,
            "any": True,
        }[self.applies]

    def hypothesis(self, acd: Fraction) -> bool:
        if self.relation == "<":
            return acd < self.threshold
        if self.relation == "<=":
            return acd <= self.threshold
        return acd == self.threshold


THEOREM_CATALOG: tuple[TheoremEntry, ...] = (
    TheoremEntry("T1a", "C", True, Fraction(3, 2), "<", "p_complement", "p2"),
    TheoremEntry("T1b", "C", True, Fraction(4, 3), "<", "p_complement", "podd"),
    TheoremEntry("T2i", "C", True, Fraction(3), "<", "solvable", "p2"),
    TheoremEntry("T2ii", "C", True, Fraction(3), "<", "solvable", "p3"),
    TheoremEntry("T2iii", "C", True, Fraction(11, 4), "<", "solvable", "p5"),
    TheoremEntry("T2iv", "C", True, Fraction(16, 5), "<", "solvable", "pgt5"),
    TheoremEntry("T3a", "Q", True, Fraction(3, 2), "<", "p_complement", "p2"),
    TheoremEntry("T3b", "Qp", True, Fraction(4, 3), "<", "p_complement", "podd"),
    TheoremEntry("C4i", "Q", False, Fraction(3, 2), "<", "p_complement", "p2"),
    TheoremEntry("C4ii", "Qp", False, Fraction(4, 3), "<", "p_complement", "podd"),
    TheoremEntry("C4iii", "R", True, Fraction(3, 2), "<", "p_complement", "p2"),
    TheoremEntry("C4iv", "R", False, Fraction(3, 2), "<", "p_complement", "p2"),
    TheoremEntry("T8i", "Q", True, Fraction(3), "<", "solvable", "p2"),
    TheoremEntry("T8ii", "Qp", True, Fraction(2), "<=", "solvable", "pgt2"),
    TheoremEntry("T8iii", "Q", True, Fraction(2), "<=", "solvable", "pgt3"),
    TheoremEntry("THOMPSON", "C", True, Fraction(1), "==", "p_complement", "any"),
)


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class TheoremVerdict:
    entry_id: str
    p: int
    acd: Fraction
    verdict: str                 # "consistent" | "vacuous" | "VIOLATION"
    sharp: bool

    def to_doc(self) -> dict:
        return {
            "id": self.entry_id,
            "p": self.p,
            "acd": _fmt(self.acd),
            "verdict": self.verdict,
            "sharp": self.sharp,
        }


@dataclass
class PrimeRecord:
    p: int
    acd_all: Fraction
    acd_Q: Fraction
    acd_Qp: Fraction
    acd_R: Fraction
    n_d: dict[int, int]
    has_normal_p_complement: bool
    is_solvable: bool
    verdicts: list[TheoremVerdict]
    conjecture_bound: Fraction | None   # (2p+2)/(p+3), informational only
    conjecture_relation: str | None

    def to_doc(self) -> dict:
        doc = {
            "p": self.p,
            "acd_all": _fmt(self.acd_all),
            "acd_Q": _fmt(self.acd_Q),
            "acd_Qp": _fmt(self.acd_Qp),
            "acd_R": _fmt(self.acd_R),
            "n_d": {str(d): c for d, c in self.n_d.items()},
            "has_normal_p_complement": self.has_normal_p_complement,
            "is_solvable": self.is_solvable,
            "theorems": [v.to_doc() for v in self.verdicts],
        }
        if self.conjecture_bound is not None:
            doc["conjecture_bound"] = _fmt(self.conjecture_bound)
            doc["conjecture_relation"] = self.conjecture_relation
        return doc


@dataclass
class VerdictReport:
    group: str
    order: int
    primes: list[PrimeRecord]

    @property
    def violations(self) -> list[TheoremVerdict]:
        return [v for rec in self.primes for v in rec.verdicts
                if v.verdict == "VIOLATION"]

    @property
    def sharpness(self) -> list[tuple[str, int]]:
        return [(v.entry_id, v.p) for rec in self.primes for v in rec.verdicts
                if v.sharp]

    def to_doc(self) -> dict:
        return {
            "group": self.group,
            "order": self.order,
            "primes": [rec.to_doc() for rec in self.primes],
            "violations": len(self.violations),
        }


def default_primes(group: PermGroup) -> list[int]:
    """Prime divisors of |G| plus the smallest prime > 5 not dividing |G|."""
    order = group.order()
    extra = 7
    while order % extra == 0 or not is_prime(extra):
        extra += 1
    return prime_factors(order) + [extra]


def check_group(group: PermGroup, primes: list[int] | None = None,
                name: str = "") -> VerdictReport:
    """Evaluate every applicable catalog entry for each prime, checked
    before the table is built.  Each field's rows are selected once (Qp's
    once per prime p dividing the exponent; otherwise they are Q's) and give
    both the p'-filtered and the plain average.  The conclusions, a normal
    p-complement and solvability, are read off the same table."""
    if primes is None:
        primes = default_primes(group)
    for p in primes:
        check_prime(p)
    table = compute_table(group)
    solvable = is_solvable(table)
    n_d = degree_counts(table)
    fixed_fields = {label: field_rows(table, spec) for label, spec in
                    (("C", FieldSpec.all()), ("Q", FieldSpec.rational()),
                     ("R", FieldSpec.real()))}
    records = []
    for p in primes:
        # Q_p meets Q(zeta_e) in Q when p does not divide e: its rows are Q's
        qp = (fixed_fields["Q"] if table.q_field.exponent % p
              else field_rows(table, FieldSpec.cyclotomic(p)))
        fields = dict(fixed_fields, Qp=qp)
        acds = {label: mean_degree(table, pprime_rows(table, rows, p))
                for label, rows in fields.items()}
        unfiltered = {label: mean_degree(table, rows) for label, rows in fields.items()}
        complement = has_normal_p_complement(table, p)
        verdicts = []
        for entry in THEOREM_CATALOG:
            if not entry.applicable(p):
                continue
            acd = acds[entry.field_label] if entry.pprime_filter else unfiltered[entry.field_label]
            concl = complement if entry.conclusion == "p_complement" else solvable
            verdict = ("vacuous" if not entry.hypothesis(acd)
                       else "consistent" if concl else "VIOLATION")
            sharp = entry.relation == "<" and acd == entry.threshold
            verdicts.append(TheoremVerdict(entry.id, p, acd, verdict, sharp))
        bound = rel = None
        if p % 2 == 1:
            bound, a = Fraction(2 * p + 2, p + 3), acds["C"]
            rel = "<" if a < bound else ("=" if a == bound else ">")
        records.append(PrimeRecord(
            p=p, acd_all=acds["C"], acd_Q=acds["Q"], acd_Qp=acds["Qp"], acd_R=acds["R"],
            n_d=n_d, has_normal_p_complement=complement, is_solvable=solvable,
            verdicts=verdicts, conjecture_bound=bound, conjecture_relation=rel))
    return VerdictReport(group=name or f"<degree {group.degree}>",
                         order=group.order(), primes=records)


# -- corpus runs ---------------------------------------------------------------

@dataclass
class CorpusSummary:
    reports: list[VerdictReport]
    warnings: list[str]
    seed: int
    max_order: int | None

    @property
    def violations(self) -> list[tuple[str, TheoremVerdict]]:
        return [(r.group, v) for r in self.reports for v in r.violations]

    @property
    def sharpness_witnesses(self) -> list[tuple[str, str, int]]:
        return sorted({(r.group, eid, p) for r in self.reports
                       for (eid, p) in r.sharpness})

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "max_order": self.max_order,
            "num_groups": len(self.reports),
            "violations": len(self.violations),
            "warnings": self.warnings,
            "sharpness_witnesses": [
                {"group": g, "id": eid, "p": p}
                for (g, eid, p) in self.sharpness_witnesses
            ],
            "reports": [r.to_doc() for r in self.reports],
        }

    def to_json(self) -> str:
        return json_text(self.to_doc())


def parse_corpus(text: str) -> tuple[list[str], list[str]]:
    """Corpus format: one group expression per line, '#' comments."""
    entries, warnings = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            parse_group_expr(line)
            entries.append(line)
        except GroupExprError as exc:
            warnings.append(f"line {lineno}: {exc}")
    return entries, warnings


def verify_corpus(entries: list[str], max_order: int | None = None,
                  jobs: int = 1, seed: int = 0,
                  warnings: list[str] | None = None) -> CorpusSummary:
    """check_group over every corpus entry, merged in corpus order."""
    warnings = list(warnings or [])

    def run(expr: str) -> VerdictReport | str:
        try:
            group = construct(expr)
        except GroupExprError as exc:
            return f"{expr}: {exc}"
        if max_order is not None and group.order() > max_order:
            return ""
        return check_group(group, name=expr)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, entries))
    else:
        results = [run(e) for e in entries]
    warnings += [res for res in results if isinstance(res, str) and res]
    reports = [res for res in results if not isinstance(res, str)]
    return CorpusSummary(reports=reports, warnings=warnings, seed=seed,
                         max_order=max_order)


# -- lemma fuzzing --------------------------------------------------------------

@dataclass
class LemmaReport:
    group: str
    trials: int
    seed: int
    subgroups_tested: int
    checks: int
    violations: list[str]

    def to_doc(self) -> dict:
        return {
            "group": self.group,
            "trials": self.trials,
            "seed": self.seed,
            "subgroups_tested": self.subgroups_tested,
            "checks": self.checks,
            "violations": self.violations,
        }


def _subgroup_fingerprint(sub: PermGroup) -> tuple:
    """|T| and the count of elements of each order, read off T's classes."""
    cd = sub.conjugacy_classes()
    orders = Counter()
    for size, m in zip(cd.sizes, cd.element_orders):
        orders[m] += size
    return (sub.order(), tuple(sorted(orders.items())))


def fuzz_lemmas(group: PermGroup, trials: int, seed: int,
                name: str = "") -> LemmaReport:
    """Random-subgroup checks of the n_1/n_2/n_3 counting inequalities and
    the |Irr_p'| index bound, for every prime divisor of |G|."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    table = compute_table(group)
    rows = group.element_rows()
    order = group.order()
    nd_g = degree_counts(table)
    prime_divisors = default_primes(group)[:-1]
    irr_p_g = {p: len(irr_pprime(table, p)) for p in prime_divisors}

    seen: set[tuple] = set()
    violations: list[str] = []
    checks = 0
    tested = 0
    for _ in range(trials):
        k = rng.choice((1, 2, 3))
        gens = [Permutation(rows[rng.randrange(len(rows))].tolist()) for _ in range(k)]
        sub = group.subgroup(gens)
        fp = _subgroup_fingerprint(sub)
        if fp in seen:
            continue
        seen.add(fp)
        tested += 1
        index = order // sub.order()
        sub_table = compute_table(sub)     # reuses the classes of the fingerprint
        nd_t = degree_counts(sub_table)
        witness = ", ".join(g.cycle_string() for g in gens) or "()"

        bounds = {
            1: Fraction(nd_t.get(1, 0) * index),
            2: Fraction(nd_t.get(2, 0) * index) + Fraction(nd_t.get(1, 0) * index, 2),
            3: Fraction(nd_t.get(3, 0) * index) + Fraction(nd_t.get(1, 0) * index, 3),
        }
        for d, bound in bounds.items():
            checks += 1
            if Fraction(nd_g.get(d, 0)) > bound:
                violations.append(
                    f"n_{d} bound fails: n_{d}(G)={nd_g.get(d, 0)} > {bound} "
                    f"for T = <{witness}> of index {index}")
        for p in prime_divisors:
            checks += 1
            irr_p_t = len(irr_pprime(sub_table, p))
            if irr_p_g[p] > index * irr_p_t:
                violations.append(
                    f"|Irr_{p}'| bound fails: {irr_p_g[p]} > {index}*{irr_p_t} "
                    f"for A = <{witness}>")
    return LemmaReport(group=name or "<group>", trials=trials, seed=seed,
                       subgroups_tested=tested, checks=checks,
                       violations=violations)


# -- central product ------------------------------------------------------------

@dataclass
class CentralProductReport:
    instances: list[dict]

    @property
    def violations(self) -> list[str]:
        return [v for inst in self.instances for v in inst["violations"]]

    def to_doc(self) -> dict:
        return {"instances": self.instances, "violations": len(self.violations)}


def check_central_product() -> CentralProductReport:
    """Verify the degree-count identities on SL(2,5) o C_{2m} instances.

    m = 2 gives G = SL(2,5) o C4, the primary instance; m = 1 is the
    degenerate case, where the central product is SL(2,5) itself.
    """
    instances = []
    for m in (2, 1):
        g = construct(f"CentralProd(SL(2,5), C({2 * m}))")
        table = compute_table(g)
        nd = degree_counts(table)
        c_over_z = construct(f"C({m})")  # C/Z for C cyclic of order 2m
        nd_cz = degree_counts(compute_table(c_over_z))
        n1, n2 = nd.get(1, 0), nd.get(2, 0)
        n2_cz = nd_cz.get(2, 0)
        claims = [
            ("n_2(G) = 2*n_1(G) + n_2(C/Z)", nd.get(2, 0) == 2 * n1 + n2_cz),
            ("n_3(G) >= 2*n_1(G)", nd.get(3, 0) >= 2 * n1),
            ("n_4(G) >= 2*n_1(G)", nd.get(4, 0) >= 2 * n1),
            ("n_5(G) >= n_1(G)", nd.get(5, 0) >= n1),
            ("n_6(G) >= n_1(G)", nd.get(6, 0) >= n1),
            ("n_8(G) >= n_2(C/Z)", nd.get(8, 0) >= n2_cz),
        ]
        instances.append({
            "group": f"CentralProd(SL(2,5), C({2 * m}))",
            "order": g.order(),
            "n_d": {str(d): c for d, c in nd.items()},
            "n_2(C/Z)": n2_cz,
            "claims": [{"claim": c, "holds": ok} for c, ok in claims],
            "violations": [f"VIOLATION: {c}" for c, ok in claims if not ok],
        })
    return CentralProductReport(instances=instances)


# -- sharpness scan --------------------------------------------------------------

def sharpness_scan(entries: list[str], p: int, mode: str):
    """Minimum acd_p' over corpus groups failing the conclusion.

    mode "solvability" filters to nonsolvable groups; mode "pnilpotency" to
    groups without a normal p-complement.  Returns (min acd or None,
    witness list).  A table is built only for a group whose order leaves
    the conclusion open: p not dividing |G| gives a normal p-complement (G
    itself), and fewer than three prime divisors give solvability
    (Burnside's p^a q^b theorem).
    """
    check_prime(p)
    if mode not in ("solvability", "pnilpotency"):
        raise ValueError("mode must be 'solvability' or 'pnilpotency'")
    solvability = mode == "solvability"
    best: Fraction | None = None
    witnesses: list[str] = []
    for expr in entries:
        group = construct(expr)
        order = group.order()
        if len(prime_factors(order)) < 3 if solvability else order % p:
            continue        # the order settles the conclusion
        table = compute_table(group)
        if is_solvable(table) if solvability else has_normal_p_complement(table, p):
            continue
        acd = average_degree(table, p, FieldSpec.all())
        if best is None or acd < best:
            best, witnesses = acd, [expr]
        elif acd == best:
            witnesses.append(expr)
    return best, witnesses
