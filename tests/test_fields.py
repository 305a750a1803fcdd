import dataclasses
import math

import numpy as np
import pytest

from chartab import FieldSpec, field_rows, galois_image_row
from chartab.fields import field_from_label, field_labels

from helpers import lifted, mod_q_values, table_of


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec("rational", 3)
    with pytest.raises(ValueError):
        FieldSpec("cyclotomic")
    with pytest.raises(ValueError, match="4 is not prime"):
        FieldSpec.cyclotomic(4)
    with pytest.raises(ValueError):
        FieldSpec("galois")
    assert field_from_label("Qp", 7) == FieldSpec.cyclotomic(7)
    with pytest.raises(ValueError):
        field_from_label("Qp")


def test_galois_identity_and_trivial_row():
    t = table_of("A(5)")
    e = t.q_field.exponent
    for row in range(t.n_classes):
        assert galois_image_row(t, row, 1) == row
    for k in range(1, e):
        if __import__("math").gcd(k, e) == 1:
            assert galois_image_row(t, 0, k) == 0


def test_galois_swaps_cyclic3_rows():
    t = table_of("C(3)")
    assert galois_image_row(t, 1, 2) == 2
    assert galois_image_row(t, 2, 2) == 1
    # verify through the lifted values: conjugation negates exponents
    e = t.q_field.exponent
    values = lifted(t)
    for j in range(3):
        (l1, m1), = values[1][j]
        (l2, m2), = values[2][j]
        assert m1 == m2 == 1 and (l1 * 2) % e == l2


def test_galois_requires_coprime_k():
    t = table_of("C(6)")
    with pytest.raises(ValueError):
        galois_image_row(t, 1, 2)


def test_s4_all_rational():
    t = table_of("S(4)")
    assert field_rows(t, FieldSpec.rational()) == tuple(range(5))


def test_cyclic3_rationality():
    t = table_of("C(3)")
    assert field_rows(t, FieldSpec.rational()) == (0,)
    assert 1 not in field_rows(t, FieldSpec.real())
    assert 2 not in field_rows(t, FieldSpec.rational())


def test_aff73_q7_rows():
    t = table_of("Aff(7,3)")
    q7 = FieldSpec.cyclotomic(7)
    rows = field_rows(t, q7)
    assert sorted(t.degrees[r] for r in rows) == [1, 3, 3]
    linear_nonprincipal = [r for r in range(5)
                           if t.degrees[r] == 1 and r != 0]
    assert all(r not in rows for r in linear_nonprincipal)


def test_replaced_values_get_a_fresh_galois_memo():
    t = table_of("C(3)")
    assert field_rows(t, FieldSpec.rational()) == (0,)
    trivial = dataclasses.replace(t, cells=np.zeros_like(t.cells))
    assert field_rows(trivial, FieldSpec.rational()) == (0, 1, 2)


def test_field_rows_all():
    t = table_of("D(5)")
    assert field_rows(t, FieldSpec.all()) == tuple(range(t.n_classes))


def test_galois_action_permutes_rows_preserving_degrees():
    import math
    for expr in ("SL(2,5)", "Aff(13,4)", "C(9)", "D(7)"):
        t = table_of(expr)
        e = t.q_field.exponent
        for k in range(1, e):
            if math.gcd(k, e) != 1:
                continue
            images = [galois_image_row(t, r, k) for r in range(t.n_classes)]
            assert sorted(images) == list(range(t.n_classes))
            assert all(t.degrees[i] == t.degrees[r]
                       for r, i in enumerate(images))


def _fixed_by_all(t, ks):
    # rows fixed by every sigma_k, straight from the values mod q
    v = mod_q_values(t).tolist()
    images = [t.class_data.power_classes(k).tolist() for k in ks]
    return {r for r, row in enumerate(v)
            if all(row[c] == row[j] for image in images for j, c in enumerate(image))}


def test_field_containments():
    for expr in ("S(4)", "SL(2,5)", "Aff(7,3)", "C(12)", "PSL(2,7)", "C(1)", "C(2)",
                 "C(60)"):
        t = table_of(expr)
        e = t.q_field.exponent
        units = [k for k in range(1, e + 1) if math.gcd(k, e) == 1]
        rational = set(field_rows(t, FieldSpec.rational()))
        real = set(field_rows(t, FieldSpec.real()))
        everything = set(field_rows(t, FieldSpec.all()))
        assert rational <= real <= everything
        assert rational == _fixed_by_all(t, units), expr
        for p in (2, 3, 5, 7):
            qp = set(field_rows(t, FieldSpec.cyclotomic(p)))
            assert rational <= qp <= everything
            if e % p != 0:
                assert qp == rational
            else:
                assert qp == _fixed_by_all(t, [k for k in units if k % p == 1]), (expr, p)


def test_real_agrees_with_inverse_class_columns():
    for expr in ("SL(2,5)", "D(7)", "Aff(5,4)", "C(8)"):
        t = table_of(expr)
        inv = t.class_data.power_classes(-1)
        real = field_rows(t, FieldSpec.real())
        v = mod_q_values(t)
        for r in range(t.n_classes):
            direct = all(int(v[r][j]) == int(v[r][inv[j]]) for j in range(t.n_classes))
            assert direct == (r in real)


def test_minimal_field_labels():
    t = table_of("SL(2,5)")
    labels = field_labels(t, primes=(5,))
    assert labels[0] == "Q"
    # the degree-2 faithful rows are real with golden-ratio values in Q(zeta_5)
    deg2 = [r for r in range(t.n_classes) if t.degrees[r] == 2]
    for r in deg2:
        assert "R" in labels[r] and "Q5" in labels[r]
