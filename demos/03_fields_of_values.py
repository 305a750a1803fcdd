"""Fields of character values via the Galois action.

For k coprime to the exponent, chi -> chi(g^k) permutes the rows of the
table; fixed rows of this action have rational values, rows fixed by
k = -1 are real-valued, and rows fixed by every k = 1 (mod p) take values
in Q(zeta_p).
"""

from chartab import FieldSpec, compute_table, construct, field_rows, galois_image_row

# S4 is a rational group: every character is fixed by the whole action.
t = compute_table(construct("S(4)"))
print("S(4) rational rows:", field_rows(t, FieldSpec.rational()), "of", t.n_classes)

# C3: the two nonprincipal characters are swapped by zeta_3 -> zeta_3^2.
t = compute_table(construct("C(3)"))
print("C(3): sigma_2 sends row 1 to row", galois_image_row(t, 1, 2))
print("C(3) rational rows:", field_rows(t, FieldSpec.rational()))

# The Frobenius group of order 21: its two degree-3 characters take values
# in Q(zeta_7) (Gauss-period sums), while its nonprincipal linear
# characters take cube-root values and fall outside.
t = compute_table(construct("Aff(7,3)"))
rational = field_rows(t, FieldSpec.rational())
real = field_rows(t, FieldSpec.real())
q7 = field_rows(t, FieldSpec.cyclotomic(7))
for r in range(t.n_classes):
    print(f"Aff(7,3) row {r} (degree {t.degrees[r]}): "
          f"Q={r in rational} R={r in real} Q7={r in q7}")

# SL(2,5): everything is real (the group is ambivalent-valued), but only
# the rows without golden-ratio entries are rational.
t = compute_table(construct("SL(2,5)"))
print("SL(2,5) real rows:  ", len(field_rows(t, FieldSpec.real())), "of", t.n_classes)
print("SL(2,5) rational degrees:",
      [t.degrees[r] for r in field_rows(t, FieldSpec.rational())])
