import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from etacover.exact import (
    is_prime,
    odd_primitive_root,
    order_numerator,
    prime_context,
    prime_factors,
    smallest_primitive_root,
)
from etacover.subgroups import (
    SL2Matrix,
    epsilon_factor,
    eta_multiplier,
    log_character,
    random_member,
)
from oracles import (
    character_modulus,
    dlog,
    from_half_turns,
    leading_exponent_at,
    least_primitive_root,
    multiplicative_order,
    periodic_bernoulli2,
    turns,
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
                    assert (turns(root, 24 * level), index) == (from_half_turns(2 * b * lead), g)


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
# a root is an int t over a modulus M the caller knows; the tests read it
# as turns(t, M), a Fraction in [0, 1)


def test_root_normalization():
    assert turns(6, 8) == turns(3, 4) == Fraction(3, 4)
    assert turns(0, 6) == 0
    assert turns(5, 10) == Fraction(1, 2)
    assert turns(-1, 12) == turns(11, 12)


def test_root_constructors():
    assert from_half_turns(Fraction(1, 3)) == Fraction(1, 6)
    assert from_half_turns(2) == 0
    assert from_half_turns(Fraction(-1, 6)) == Fraction(11, 12)


@given(rationals, rationals)
def test_half_turns_additive(a, b):
    lhs = (from_half_turns(a) + from_half_turns(b)) % 1
    assert lhs == from_half_turns(a + b)


def test_root_exponent_range():
    # every root the package returns is an int already reduced mod its modulus
    for p in (5, 7, 11, 13, 37, 73):
        ctx, rng = prime_context(p), random.Random(p)
        for _ in range(100):
            m = random_member(ctx, rng)
            assert epsilon_factor(m.a, m.b, m.c, m.d) in range(12)
            for g in (1, 2, ctx.g):
                assert eta_multiplier(g, p, m)[0] in range(24 * p)
            assert log_character(ctx, dlog(ctx, m.a), m) in range(character_modulus(ctx))
