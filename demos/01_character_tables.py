"""Character tables, exactly.

Builds a few permutation groups, computes their irreducible character
tables with the finite-field (Burnside-Dixon-Schneider) engine, and prints
the exact values.  Everything here is integer arithmetic: the value shown
as "z^5 + z^20" is a literal sum of roots of unity, not a float.
"""

from chartab import compute_table, construct, format_table, verify_orthogonality

# A small abelian group first: the table is the dual group.
c6 = construct("C(6)")
print(format_table(compute_table(c6)))
print()

# The alternating group on 5 points: degrees 1, 3, 3, 4, 5, with
# golden-ratio values on the two classes of 5-cycles.
a5 = construct("A(5)")
t = compute_table(a5)
print(format_table(t))
print()

# Orthogonality is checked exactly: the first relation over the lifted
# values, and their Galois equivariance, which makes that check exact.
print("orthogonality holds:", verify_orthogonality(t))
print("sum of squared degrees:", sum(d * d for d in t.degrees), "= |G| =", a5.order())
print()

# The binary icosahedral group SL(2,5), acting on the 24 nonzero vectors
# of F_5^2.  Its table contains Alt(5)'s (the center acts trivially) plus
# four faithful rows of degrees 2, 2, 4, 6.
sl = construct("SL(2,5)")
print(format_table(compute_table(sl)))
