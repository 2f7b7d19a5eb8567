from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etacover.qseries import PrecisionError, QSeries

coeffs_st = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def series(draw, nonzero=False):
    denom = draw(st.sampled_from([1, 2, 6, 24]))
    keys = draw(st.lists(st.integers(-24, 24), min_size=1 if nonzero else 0,
                         max_size=5, unique=True))
    terms = {k: draw(coeffs_st) for k in keys}
    if nonzero:
        terms[keys[0]] = terms[keys[0]] or Fraction(1)
    top = max(keys, default=0)
    trunc = Fraction(top + draw(st.integers(1, 12)), denom)
    return QSeries(denom, terms, trunc)


def agree(a: QSeries, b: QSeries) -> bool:
    return a.agrees_with(b, min(a.trunc, b.trunc))


def test_constructor_drops_zero_and_beyond_trunc():
    s = QSeries(2, {0: Fraction(1), 3: Fraction(0), 8: Fraction(5)}, Fraction(3))
    assert set(s.coeffs) == {0}
    assert s.coeff(0) == 1
    assert s.coeff(Fraction(1, 2)) == 0


def test_constructor_rejects_zero_denominator():
    with pytest.raises(ValueError):
        QSeries(0, {0: Fraction(1)}, Fraction(3))


def test_coeff_is_loud_past_trunc():
    s = QSeries.one(1, 3)
    assert s.coeff(2) == 0
    with pytest.raises(PrecisionError):
        s.coeff(3)


def test_agrees_with_is_loud_past_trunc():
    a = QSeries.one(1, 3)
    b = QSeries.one(1, 5)
    assert a.agrees_with(b, 3)
    with pytest.raises(PrecisionError):
        a.agrees_with(b, 4)


def test_monomial_lattice_check():
    m = QSeries.monomial(2, Fraction(-1, 2), 2, 3)
    assert m.leading() == (Fraction(-1, 2), Fraction(2))
    with pytest.raises(ValueError):
        QSeries.monomial(1, Fraction(1, 3), 2, 3)


def test_leading_of_zero_series():
    with pytest.raises(ValueError):
        QSeries.zero(1, 2).leading()


def test_restrict_and_rescale():
    s = QSeries(2, {-1: Fraction(1), 4: Fraction(7)}, Fraction(5, 2))
    r = s.restrict(1)
    assert set(r.coeffs) == {-1}
    with pytest.raises(PrecisionError):
        s.restrict(3)
    assert s.rescale(6) == s
    with pytest.raises(ValueError):
        s.rescale(3)


def test_product_truncation_rule():
    a = QSeries(1, {0: Fraction(1), 1: Fraction(1)}, 5)
    b = QSeries(1, {-2: Fraction(1)}, 3)
    assert (a * b).trunc == 3  # min(5 + (-2), 3 + 0)


@given(series(), series())
def test_add_commutes(a, b):
    assert a + b == b + a


@given(series(), series(), series())
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(series())
def test_sub_self_is_zero(a):
    assert (a - a).is_zero()


@given(series(), series())
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=60)
@given(series(), series(), series())
def test_mul_associates_to_shared_precision(a, b, c):
    assert agree((a * b) * c, a * (b * c))


@settings(max_examples=60)
@given(series(), series(), series())
def test_mul_distributes_to_shared_precision(a, b, c):
    assert agree(a * (b + c), a * b + a * c)


@given(series())
def test_one_is_neutral(a):
    one = QSeries.one(a.denom, a.trunc - a._lead_or_trunc())
    assert agree(a * one, a)


@given(series(nonzero=True))
def test_inverse_multiplies_to_one(a):
    prod = a * a.inverse()
    assert agree(prod, QSeries.one(prod.denom, prod.trunc))


@given(series(nonzero=True))
def test_pow_matches_repeated_product(a):
    assert agree(a**3, a * a * a)
    assert agree(a**-1, a.inverse())
    assert agree(a**-2, a.inverse() * a.inverse())
    unit = a**0
    assert unit.coeffs == {0: Fraction(1)}


@given(series(), st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_shift_roundtrip(a, e):
    assert a.shift(e).shift(-e) == a


@given(series(nonzero=True), st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_shift_moves_leading(a, e):
    assert a.shift(e).leading()[0] == a.leading()[0] + e
    assert a.shift(e).trunc == a.trunc + e


def test_inverse_rejects_zero():
    with pytest.raises(ValueError):
        QSeries.zero(1, 2).inverse()


def test_render_formats():
    s = QSeries(2, {-1: Fraction(-1), 1: Fraction(3), 5: Fraction(-5)}, Fraction(7, 2))
    assert s.render() == "-1*q^(-1/2) + 3*q^(1/2) - 5*q^(5/2) + O(q^(7/2))"
    assert QSeries.zero(1, 4).render() == "O(q^(4))"
    assert QSeries(1, {0: Fraction(3, 2)}, 2).render() == "3/2 + O(q^(2))"
    assert str(s) == s.render()
