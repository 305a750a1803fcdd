import json

import pytest

from chartab import GroupExprError, construct, parse_group_expr, render
from chartab.groupspec import CentralProdSpec, NamedSpec, ProductSpec


def test_parse_named():
    assert parse_group_expr("A(5)") == NamedSpec("A", (5,))
    assert parse_group_expr("Alt(5)") == NamedSpec("A", (5,))
    assert parse_group_expr("SL(2,5)") == NamedSpec("SL", (2, 5))


def test_parse_product():
    spec = parse_group_expr("SL(2,5) x C(3)")
    assert isinstance(spec, ProductSpec)
    assert construct(spec).order() == 360


def test_parse_central_product():
    spec = parse_group_expr("CentralProd(SL(2,5), C(4))")
    assert construct(spec).order() == 240


def test_roundtrip():
    cases = [
        "A(5)",
        "Cyclic(6)",
        "SL(2,5) x C(3) x D(4)",
        "Quot(C(12); (0 4 8)(1 5 9)(2 6 10)(3 7 11))",
        "CentralProd(SL(2,5), C(6))",
        'File("some/path.json")',
    ]
    for text in cases:
        spec = parse_group_expr(text)
        assert parse_group_expr(render(spec)) == spec


def test_syntax_errors_are_located():
    with pytest.raises(GroupExprError) as exc:
        parse_group_expr("C(3")
    assert "position" in str(exc.value)
    for bad in ("B(5)", "C()", "C(2,3)", "C(x)", "C(3) C(4)", "", "Quot(C(4))"):
        with pytest.raises(GroupExprError):
            parse_group_expr(bad)


def test_constructor_validation():
    with pytest.raises(GroupExprError):
        construct("Aff(7,4)")     # 4 does not divide 6
    with pytest.raises(GroupExprError):
        construct("Aff(8,2)")     # 8 not prime
    with pytest.raises(GroupExprError):
        construct("SL(2,11)")
    with pytest.raises(GroupExprError):
        construct("SL(3,3)")
    with pytest.raises(GroupExprError):
        construct("CentralProd(SL(2,5), C(3))")  # odd cyclic factor
    # hand-built specs the parser would reject
    for spec in (CentralProdSpec(NamedSpec("A", (5,)), NamedSpec("C", (4,))),
                 CentralProdSpec(NamedSpec("SL", (2, 5)), NamedSpec("C", (3,)))):
        with pytest.raises(GroupExprError):
            construct(spec)


def test_quotient_expression_requires_normal_subgroup():
    from chartab import NotNormal
    with pytest.raises(NotNormal):
        construct("Quot(S(3); (0 1))")


def test_group_file_roundtrip(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({
        "degree": 4,
        "generators": [[1, 0, 3, 2], "(0 2)(1 3)"],
    }))
    g = construct(f'File("{path}")')
    assert g.order() == 4
    assert not any(x.order() > 2 for x in g.elements())


def test_group_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(GroupExprError):
        construct(f'File("{missing}")')
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GroupExprError):
        construct(f'File("{bad}")')
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"degree": 3}))
    with pytest.raises(GroupExprError):
        construct(f'File("{schema}")')
    badgen = tmp_path / "badgen.json"
    badgen.write_text(json.dumps({"degree": 3, "generators": [[0, 0, 1]]}))
    with pytest.raises(GroupExprError):
        construct(f'File("{badgen}")')


def test_whitespace_insensitive():
    a = parse_group_expr(" C( 3 )   x  D(4) ")
    b = parse_group_expr("C(3) x D(4)")
    assert a == b
