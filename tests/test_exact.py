import cmath
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from etacover.exact import (
    PrimeContext,
    RootOfUnity,
    is_prime,
    odd_primitive_root,
    order_numerator,
    prime_context,
    prime_factors,
    smallest_primitive_root,
)
from etacover.subgroups import SL2Matrix, eta_multiplier
from oracles import (
    from_half_turns,
    leading_exponent_at,
    least_primitive_root,
    multiplicative_order,
    periodic_bernoulli2,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=48)


def bernoulli2(x: Fraction) -> Fraction:
    """B(x) = x^2 - x + 1/6 for x = g/N, read off order_numerator at the cusp
    1/0, which is 12N times the leading exponent N*B(g/N)/2, so 6N^2*B(g/N)."""
    return Fraction(order_numerator({x.numerator: 1}, x.denominator, 1, 0),
                    6 * x.denominator ** 2)


@pytest.mark.parametrize(
    "x, want",
    [
        (Fraction(0), Fraction(1, 6)),
        (Fraction(1, 2), Fraction(-1, 12)),
        (Fraction(1), Fraction(1, 6)),
        (Fraction(1, 5), Fraction(1, 150)),
        (Fraction(2, 5), Fraction(-11, 150)),
        (Fraction(1, 3), Fraction(-1, 18)),
    ],
)
def test_bernoulli2_values(x, want):
    assert bernoulli2(x) == want


@given(st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda x: x < 1))
def test_periodic_matches_polynomial_on_unit_interval(x):
    assert periodic_bernoulli2(x) == bernoulli2(x)


def test_order_numerator_is_the_leading_exponent():
    # the one formula: the leading exponent N*B(g/N)/2 of E_g at infinity,
    # and through it the phase e^(pi*i*b*N*B(g/N)) of E_g under +-T^b
    identity = SL2Matrix.identity()
    for level in range(2, 41):
        for g in range(1, level):
            lead = Fraction(order_numerator({g: 1}, level, 1, 0), 12 * level)
            assert lead == leading_exponent_at(g, level, identity), (level, g)
            for b in range(-3, 4):
                for t in (SL2Matrix.translation(b), -SL2Matrix.translation(b)):
                    root, index = eta_multiplier(g, level, t)
                    assert (root, index) == (from_half_turns(2 * b * lead), g)


@given(rationals)
def test_periodic_bernoulli2_is_periodic(x):
    assert periodic_bernoulli2(x + 1) == periodic_bernoulli2(x)
    assert periodic_bernoulli2(x - 7) == periodic_bernoulli2(x)


@given(rationals)
def test_periodic_bernoulli2_is_even(x):
    # {-x} = 1 - {x} off the integers and B(1 - y) = B(y)
    assert periodic_bernoulli2(-x) == periodic_bernoulli2(x)


def test_is_prime_against_sieve():
    composite = {0, 1}
    for n in range(2, 500):
        for m in range(2 * n, 500, n):
            composite.add(m)
    for n in range(500):
        assert is_prime(n) == (n not in composite)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(360) == [2, 3, 5]


def test_smallest_primitive_root_matches_order_search():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        assert smallest_primitive_root(p) == least_primitive_root(p)


FROZEN_ODD_ROOTS = {5: 7, 7: 3, 11: 13, 13: 15, 19: 21, 23: 5, 29: 31, 41: 47}


def test_odd_primitive_root_frozen():
    for p, want in FROZEN_ODD_ROOTS.items():
        assert odd_primitive_root(p) == want


def test_odd_primitive_root_properties():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        g = odd_primitive_root(p)
        assert g % 2 == 1
        assert multiplicative_order(g, p) == p - 1
        least = least_primitive_root(p)
        assert g in (least, least + p)


@pytest.mark.parametrize("bad", [4, 6, 9, 15, 2, 3, 1, 0, -5])
def test_odd_primitive_root_rejects(bad):
    with pytest.raises(ValueError):
        odd_primitive_root(bad)


FROZEN_CONTEXTS = {
    # p: (g, k, ell)
    5: (7, 1, 2),
    7: (3, 1, 3),
    11: (13, 5, 1),
    13: (15, 1, 6),
    17: (3, 4, 2),
    19: (21, 3, 3),
    29: (31, 7, 2),
    37: (39, 3, 6),
    59: (61, 29, 1),
    97: (5, 8, 6),
}


def test_prime_context_frozen():
    for p, (g, k, ell) in FROZEN_CONTEXTS.items():
        ctx = prime_context(p)
        assert (ctx.g, ctx.k, ctx.ell) == (g, k, ell)
        assert ctx.degree == 2 * k


def test_prime_context_factorization():
    for p in range(5, 200):
        if not is_prime(p):
            continue
        ctx = prime_context(p)
        assert 2 * ctx.k * ctx.ell == p - 1
        assert ctx.ell in (1, 2, 3, 6)
        # ell is determined by p mod 12
        assert ctx.ell == {11: 1, 5: 2, 7: 3, 1: 6}[p % 12]


def test_prime_context_rejects():
    for bad in (1, 2, 3, 4, 9, 0):
        with pytest.raises(ValueError):
            prime_context(bad)


# -- roots of unity --------------------------------------------------------


def test_root_normalization():
    assert RootOfUnity(8, 6) == RootOfUnity(4, 3)
    assert RootOfUnity(6, 0) == RootOfUnity.one()
    assert RootOfUnity(10, 5) == RootOfUnity.minus_one()
    assert RootOfUnity(12, -1) == RootOfUnity(12, 11)


def test_root_constructors():
    assert RootOfUnity.from_sign(1).is_one()
    assert RootOfUnity.from_sign(-1) == RootOfUnity(2, 1)
    assert from_half_turns(Fraction(1, 3)) == RootOfUnity(6, 1)
    assert from_half_turns(2) == RootOfUnity.one()
    assert from_half_turns(Fraction(-1, 6)) == RootOfUnity(12, 11)


small_roots = st.builds(
    RootOfUnity,
    st.integers(min_value=1, max_value=48),
    st.integers(min_value=-48, max_value=48),
)


@given(small_roots, small_roots, small_roots)
def test_root_group_law(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * RootOfUnity.one() == x
    assert (x * x**-1).is_one()


@given(small_roots, st.integers(min_value=-6, max_value=6))
def test_root_powers(x, n):
    acc = RootOfUnity.one()
    for _ in range(abs(n)):
        acc = acc * (x if n >= 0 else RootOfUnity(x.order, -x.exponent))
    assert x**n == acc


@given(rationals, rationals)
def test_half_turns_additive(a, b):
    lhs = from_half_turns(a) * from_half_turns(b)
    assert lhs == from_half_turns(a + b)


@given(small_roots)
def test_root_value_on_unit_circle(x):
    v = x.value()
    assert abs(abs(v) - 1) < 1e-12
    assert abs(v - cmath.exp(2j * cmath.pi * x.exponent / x.order)) < 1e-12


def test_root_str_canonical():
    assert str(RootOfUnity.one()) == "1"
    assert str(RootOfUnity.minus_one()) == "-1"
    assert str(RootOfUnity(6, 1)) == "e^(2*pi*i*1/6)"
    assert str(RootOfUnity(60, 2)) == "e^(2*pi*i*1/30)"
    assert str(RootOfUnity(12, -1)) == "e^(2*pi*i*11/12)"


@given(small_roots)
def test_root_exponent_range(x):
    assert 0 <= x.exponent < x.order
    assert gcd(x.exponent, x.order) == 1 or x.exponent == 0
