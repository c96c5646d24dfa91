import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqtvc.algebra import (AlgebraError, Matrix2, anisotropic_difference_check,
                           default_modulus, field_make, is_prime)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_field_construction_errors():
    with pytest.raises(AlgebraError):
        field_make(4)
    with pytest.raises(AlgebraError):
        field_make(2, 9)  # 512 > cap


def test_default_moduli():
    # least monic irreducibles in coefficient lex order
    assert default_modulus(2, 2) == [1, 1, 1]
    assert default_modulus(3, 2) == [1, 0, 1]
    assert default_modulus(2, 4) == [1, 0, 0, 1, 1]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 4),
                                 (3, 2), (5, 2)])
def test_field_axioms(p, e):
    f = field_make(p, e)
    q = f.q
    for a in f.elements():
        assert f.add[a][0] == a
        assert f.mul[a][1] == a
        assert f.mul[a][0] == 0
        assert f.add[a][f.neg[a]] == 0
        if a:
            assert f.mul[a][f.inv[a]] == 1
    # associativity and distributivity on a sample
    sample = list(range(min(q, 8)))
    for a in sample:
        for b in sample:
            assert f.add[a][b] == f.add[b][a]
            assert f.mul[a][b] == f.mul[b][a]
            for c in sample:
                assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]
                assert f.mul[f.mul[a][b]][c] == f.mul[a][f.mul[b][c]]


def test_prime_field_matches_integers_mod_p():
    f = field_make(7)
    for a in range(7):
        for b in range(7):
            assert f.add[a][b] == (a + b) % 7
            assert f.mul[a][b] == (a * b) % 7


def test_frobenius_in_gf4():
    f = field_make(2, 2)
    # squaring permutes the field and fixes exactly GF(2)
    fixed = [a for a in f.elements() if f.mul[a][a] == a]
    assert fixed == [0, 1]


@given(st.integers(0, 24), st.integers(0, 24), st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_pow_and_sub(a, b, k):
    f = field_make(5, 2)
    assert f.add[f.sub(a, b)][b] == a
    r = 1
    for _ in range(k):
        r = f.mul[r][a]
    assert f.pow(a, k) == r


def test_quadratic_form():
    f = field_make(5)
    m = Matrix2(f, 1, 3, 0, 2)  # x^2 + 3xy + 2y^2
    assert m.quadratic_form(1, 0) == 1
    assert m.quadratic_form(0, 1) == 2
    assert m.quadratic_form(1, 1) == (1 + 3 + 2) % 5


def test_anisotropic_difference_check():
    f = field_make(5)
    # x^2 + y^2 is anisotropic over GF(5)? -1 = 4 = 2^2, so it is not:
    # (1, 2) gives 1 + 4 = 0
    iso = [Matrix2(f, 0, 0, 0, 0), Matrix2(f, 1, 0, 0, 1)]
    assert not anisotropic_difference_check(iso)
    # x^2 + xy + y^2 has discriminant -3 = 2, a non-square mod 5
    good = [Matrix2(f, 0, 0, 0, 0), Matrix2(f, 1, 1, 0, 1)]
    assert anisotropic_difference_check(good)
    assert anisotropic_difference_check([])


@pytest.mark.parametrize("call, message", [
    (lambda: field_make(17, 2), "field size limited to 256"),
    (lambda: Matrix2(field_make(5), 0, 0, 0, 0).sub(
        Matrix2(field_make(3), 0, 0, 0, 0)), "matrices over different fields"),
    (lambda: anisotropic_difference_check([
        Matrix2(field_make(5), 0, 0, 0, 0), Matrix2(field_make(3), 0, 0, 0, 0)]),
     "matrices over different fields"),
], ids=["field-289", "sub-across-fields", "anisotropic-across-fields"])
def test_bad_arguments_raise_with_message(call, message):
    with pytest.raises(AlgebraError, match=message):
        call()
