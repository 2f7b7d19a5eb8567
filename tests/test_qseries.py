from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etacover.qseries import PrecisionError, QSeries
from oracles import fraction_render, naive_product

coeffs_st = st.integers(-9, 9)


@st.composite
def series(draw, nonzero=False):
    denom = draw(st.sampled_from([1, 2, 6, 24]))
    keys = draw(st.lists(st.integers(-24, 24), min_size=1 if nonzero else 0,
                         max_size=5, unique=True))
    terms = {k: draw(coeffs_st) for k in keys}
    if nonzero:  # an integer inverse needs a leading coefficient of +-1
        terms[min(keys)] = draw(st.sampled_from([1, -1]))
    top = max(keys, default=0)
    trunc = Fraction(top + draw(st.integers(1, 12)), denom)
    return QSeries(denom, terms, trunc)


def agree(a: QSeries, b: QSeries) -> bool:
    return a.agrees_with(b, min(a.trunc, b.trunc))


def test_constructor_drops_zero_and_beyond_trunc():
    # a non-integer at or past the truncation is dropped before it is checked
    s = QSeries(2, {0: 1, 3: 0, 8: 5, 6: Fraction(1, 2), 9: 0.5}, Fraction(3))
    assert s.coeffs == {0: 1}


def test_constructor_takes_integers_only():
    # bools and int-valued Fractions or floats are stored as ints
    s = QSeries(1, {0: Fraction(4, 2), 1: -3, 2: True, 3: 3.0, 4: False}, 5)
    assert s.coeffs == {0: 2, 1: -3, 2: 1, 3: 3}
    assert all(type(c) is int for c in s.coeffs.values())
    for c, text in ((Fraction(1, 2), "1/2"), (Fraction(3, 2), "3/2"), (0.5, "0.5")):
        with pytest.raises(ValueError, match=f"^coefficient {text} is not an integer$"):
            QSeries(1, {0: c}, 2)


@given(series())
def test_same_lattice_and_unit_scale_are_the_series(a):
    assert a.rescale(a.denom) == a
    assert a.scale(1) == a
    assert a.scale(-1).scale(-1) == a


@st.composite
def wide_series(draw):
    # negative exponents on the lattices of expand_product (24N, N = 13) and below
    denom = draw(st.sampled_from([1, 24, 312]))
    keys = draw(st.lists(st.integers(-2 * denom, 4 * denom), max_size=12, unique=True))
    terms = {k: draw(st.integers(-10**6, 10**6)) for k in keys}
    trunc = Fraction(max(keys, default=0) + draw(st.integers(1, 2 * denom)), denom)
    return QSeries(denom, terms, trunc)


@given(wide_series())
def test_render_matches_the_fraction_render(a):
    assert a.render() == fraction_render(a)


def test_constructor_rejects_zero_denominator():
    with pytest.raises(ValueError):
        QSeries(0, {0: 1}, Fraction(3))


def test_agrees_with_is_loud_past_trunc():
    a = QSeries.one(1, 3)
    b = QSeries.one(1, 5)
    assert a.agrees_with(b, 3)
    with pytest.raises(PrecisionError):
        a.agrees_with(b, 4)


def test_leading_of_zero_series():
    with pytest.raises(ValueError):
        QSeries(1, {}, 2).leading()


def test_rescale():
    s = QSeries(2, {-1: 1, 4: 7}, Fraction(5, 2))
    assert s.rescale(6) == s
    with pytest.raises(ValueError):
        s.rescale(3)


def test_product_truncation_rule():
    a = QSeries(1, {0: 1, 1: 1}, 5)
    b = QSeries(1, {-2: 1}, 3)
    assert (a * b).trunc == 3  # min(5 + (-2), 3 + 0)


@given(series(), series())
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(series(), series())
def test_mul_matches_naive_product(a, b):
    prod = a * b
    assert (prod.denom, prod.trunc, prod.coeffs) == naive_product(a, b)


@settings(max_examples=60)
@given(series(), series(), series())
def test_mul_associates_to_shared_precision(a, b, c):
    assert agree((a * b) * c, a * (b * c))


@given(series())
def test_one_is_neutral(a):
    one = QSeries.one(a.denom, a.trunc - a._lead_or_trunc())
    assert agree(a * one, a)


@given(series(nonzero=True))
def test_inverse_multiplies_to_one(a):
    # the inverse is one recurrence on the coefficients: no series multiply
    def forbidden(self, other):
        raise AssertionError("QSeries arithmetic called")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QSeries, "__mul__", forbidden)
        inv = a.inverse()
    assert inv.trunc == a.trunc - 2 * a.leading()[0]
    prod = a * inv
    assert agree(prod, QSeries.one(prod.denom, prod.trunc))


@given(series(nonzero=True))
def test_pow_matches_repeated_product(a):
    assert agree(a**3, a * a * a)
    assert agree(a**-1, a.inverse())
    assert agree(a**-2, a.inverse() * a.inverse())
    unit = a**0
    assert unit.coeffs == {0: 1}


@given(series(), st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_shift_roundtrip(a, e):
    assert a.shift(e).shift(-e) == a


@given(series(nonzero=True), st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_shift_moves_leading(a, e):
    assert a.shift(e).leading()[0] == a.leading()[0] + e
    assert a.shift(e).trunc == a.trunc + e


def test_inverse_rejects_zero():
    with pytest.raises(ValueError):
        QSeries(1, {}, 2).inverse()


def test_inverse_rejects_a_non_unit_lead():
    with pytest.raises(ValueError, match="not a unit"):
        QSeries(1, {0: 2, 1: 1}, 4).inverse()
    with pytest.raises(ValueError, match="not a unit"):
        QSeries(2, {-1: -3}, 4) ** -1


def test_render_formats():
    s = QSeries(2, {-1: -1, 1: 3, 5: -5}, Fraction(7, 2))
    assert s.render() == "-1*q^(-1/2) + 3*q^(1/2) - 5*q^(5/2) + O(q^(7/2))"
    assert QSeries(1, {}, 4).render() == "O(q^(4))"
    assert str(s) == s.render()
