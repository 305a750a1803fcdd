"""Average degrees of characters of p'-degree, as exact rationals.

The interesting groups sit exactly on the boundaries: A4 averages 3/2
over its odd-degree characters, S3 averages 4/3 over its 3'-degree
characters, and A5 realizes 3, 11/4 and 16/5 at p = 2, 5, 7.  Dihedral
groups of order 2p land on (2p+2)/(p+3).
"""

from fractions import Fraction

from chartab import FieldSpec, average_degree, compute_table, construct, irr_pprime

examples = [
    ("A(4)", 2), ("S(3)", 3),
    ("A(5)", 2), ("A(5)", 5), ("A(5)", 7),
    ("SL(2,5)", 2), ("SL(2,5)", 3),
    ("S(4)", 2),
]
for expr, p in examples:
    t = compute_table(construct(expr))
    rows = irr_pprime(t, p)
    degrees = [t.degrees[r] for r in rows]
    acd = average_degree(t, p, FieldSpec.all())
    print(f"{expr:10s} p={p}:  degrees {degrees}  ->  acd = {acd}")

print()
print("dihedral groups of order 2p against the bound (2p+2)/(p+3):")
for p in (3, 5, 7, 11, 13):
    t = compute_table(construct(f"D({p})"))
    value = average_degree(t, p, FieldSpec.all())
    bound = Fraction(2 * p + 2, p + 3)
    print(f"  D({p}): acd_{p}' = {value}  bound = {bound}  equal: {value == bound}")

print()
print("field-restricted averages:")
t = compute_table(construct("Aff(7,3)"))
print("  Aff(7,3): acd over Q(zeta_7)-valued rows at p=7 =",
      average_degree(t, 7, FieldSpec.cyclotomic(7)))
t = compute_table(construct("S(4)"))
print("  S(4): acd over rational rows at p=2 =",
      average_degree(t, 2, FieldSpec.rational()))
