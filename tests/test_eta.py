from fractions import Fraction
from itertools import product

import pytest

from etacover.eta import (
    EtaProduct,
    _partitions,
    classical_eta,
    eta_quotient_series,
    expand_product,
    find_triplet,
    generalized_eta,
    is_modular_unit,
    orbit_factors,
    orbit_product,
    order_numerator,
    reduce_index,
    triplet_product,
)
from etacover.exact import prime_context
from etacover.subgroups import Cusp, SL2Matrix
from etacover.qseries import QSeries
from oracles import (
    brute_classical_eta,
    brute_eta_expansion,
    coin_change_partitions,
    leading_exponent_at,
    pentagonal_eta,
    smallest_triplet,
)


def series_agree(a, b) -> bool:
    return a.agrees_with(b, min(a.trunc, b.trunc))


def leading_exponent(g: int, level: int) -> Fraction:
    """N*B(g/N)/2, the leading exponent of E_g, from the package's one formula."""
    return Fraction(order_numerator({g: 1}, level, 1, 0), 12 * level)


# -- index reduction -------------------------------------------------------


@pytest.mark.parametrize(
    "g, level, want",
    [
        (1, 5, (1, 1)),
        (2, 5, (2, 1)),
        (3, 5, (2, 1)),  # reflection swaps the factor families, no sign
        (4, 5, (1, 1)),
        (6, 5, (1, -1)),  # one level-shift, one sign
        (7, 5, (2, -1)),
        (-1, 5, (1, -1)),
        (-3, 5, (2, -1)),
        (12, 5, (2, 1)),
        (13, 5, (2, 1)),
        (5, 12, (5, 1)),
        (11, 12, (1, 1)),
        (18, 12, (6, -1)),
    ],
)
def test_reduce_index(g, level, want):
    idx = reduce_index(g, level)
    assert (idx.g, idx.sign) == want
    assert 1 <= idx.g <= level // 2


@pytest.mark.parametrize("g, level", [(0, 5), (10, 5), (-12, 4), (3, 1)])
def test_reduce_index_rejects(g, level):
    with pytest.raises(ValueError):
        reduce_index(g, level)


def test_reduction_signs_match_defining_product():
    # the oracle folds negative factor exponents directly, so it derives
    # the sign convention from the product instead of assuming it
    for level in (2, 3, 5, 7, 12):
        cache = {}
        for g in range(-2 * level - 3, 2 * level + 4):
            if g % level == 0:
                continue
            idx = reduce_index(g, level)
            if idx.g not in cache:
                cache[idx.g] = brute_eta_expansion(idx.g, level, 10)[1]
            _, raw = brute_eta_expansion(g, level, 10)
            assert raw == {n: idx.sign * c for n, c in cache[idx.g].items()}, (level, g)


# -- expansions ------------------------------------------------------------


def test_leading_exponent_values():
    assert leading_exponent(1, 5) == Fraction(1, 60)
    assert leading_exponent(2, 5) == Fraction(-11, 60)
    assert leading_exponent(1, 2) == Fraction(-1, 12)
    assert leading_exponent(3, 7) == Fraction(-23, 84)


def test_generalized_eta_matches_oracle():
    for level in (2, 3, 5, 11, 24):
        for g in range(1, level):
            denom, want = brute_eta_expansion(g, level, 12)
            s = generalized_eta(g, level, 12)
            assert s.denom == denom
            assert dict(s.coeffs) == want, (level, g)
            assert s.leading()[0] == leading_exponent_at(g, level, SL2Matrix.identity())


def test_partitions_match_coin_change():
    assert _partitions(200) == coin_change_partitions(200)
    assert _partitions(100)[100] == 190_569_292


def test_generalized_eta_rejects():
    for g, level in ((0, 5), (5, 5), (6, 5), (-1, 5)):
        with pytest.raises(ValueError):
            generalized_eta(g, level, 5)
    with pytest.raises(ValueError):
        generalized_eta(1, 5, 0)


def test_classical_eta_is_pentagonal():
    denom, want = pentagonal_eta(25)
    s = classical_eta(1, 25)
    assert s.denom == denom and dict(s.coeffs) == want
    scaled = classical_eta(3, 25)
    assert scaled.leading() == (Fraction(3, 24), Fraction(1))
    with pytest.raises(ValueError):
        classical_eta(0, 5)


@pytest.mark.parametrize(
    "level, g, steps",
    [(p, g, steps) for p, steps in ((5, 300), (13, 250), (23, 200), (47, 150))
     for g in range(1, p // 2 + 1)]
    # g = N/2: theta terms n and -n share an exponent
    + [(level, level // 2, 120) for level in range(2, 31, 2)],
)
def test_generalized_eta_matches_oracle_long(level, g, steps):
    denom, want = brute_eta_expansion(g, level, steps)
    s = generalized_eta(g, level, steps)
    assert s.denom == denom
    assert dict(s.coeffs) == want


@pytest.mark.parametrize("scale", range(1, 13))
def test_classical_eta_matches_product_oracle(scale):
    for steps in (1, 2, 7, 60):
        denom, want = brute_classical_eta(scale, steps)
        s = classical_eta(scale, steps)
        assert s.denom == denom and dict(s.coeffs) == want, steps
        assert s.trunc == Fraction(scale, 24) + steps


def test_eta_expansions_do_not_multiply_series(monkeypatch):
    # the closed forms must not fall back on one multiply per factor
    def no_mul(self, other):
        raise AssertionError("QSeries.__mul__ called")

    monkeypatch.setattr(QSeries, "__mul__", no_mul)
    for g in (1, 11, 23):
        denom, want = brute_eta_expansion(g, 47, 300)
        s = generalized_eta(g, 47, 300)
        assert s.denom == denom and dict(s.coeffs) == want, g
    for scale in (1, 7):
        denom, want = brute_classical_eta(scale, 500)
        s = classical_eta(scale, 500)
        assert s.denom == denom and dict(s.coeffs) == want, scale


# -- eta products ----------------------------------------------------------


def test_orbit_product_structures():
    cases = {
        # p, h: exponents, sign
        (5, 1): ({1: 3, 2: 3}, -1),
        (5, 2): ({1: 3, 2: 3}, 1),
        (7, 1): ({1: 2, 2: 2, 3: 2}, 1),
        (13, 1): ({1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}, 1),
        (17, 1): ({1: 3, 4: 3}, 1),
        (29, 1): ({1: 3, 12: 3}, -1),
    }
    for (p, h), (exps, sign) in cases.items():
        f = orbit_product(h, prime_context(p))
        assert f.exponents == exps and f.sign == sign, (p, h)
        assert f.label == f"F_{h}"
        assert f.level == p


def test_orbit_product_index_shifts_are_exact_series():
    # the three frozen shift examples, as series to 8 steps past leading
    ctx5 = prime_context(5)
    f1 = expand_product(orbit_product(1, ctx5), 8)
    for other in (4, 6, -1):
        assert series_agree(f1, expand_product(orbit_product(other, ctx5), 8))

    ctx13 = prime_context(13)  # 13 == 1 mod 4: orbit step flips the sign
    gk = pow(ctx13.g, ctx13.k, 13)
    lhs = expand_product(orbit_product(gk, ctx13), 8)
    rhs = expand_product(orbit_product(1, ctx13), 8).scale(-1)
    assert series_agree(lhs, rhs)

    ctx7 = prime_context(7)  # 7 == 3 mod 4: no sign
    gk = pow(ctx7.g, ctx7.k, 7)
    lhs = expand_product(orbit_product(gk, ctx7), 8)
    rhs = expand_product(orbit_product(1, ctx7), 8)
    assert series_agree(lhs, rhs)


def test_orbit_product_rejects_zero_index():
    with pytest.raises(ValueError):
        orbit_product(0, prime_context(5))
    with pytest.raises(ValueError):
        orbit_product(10, prime_context(5))


def test_expand_product_against_factor_arithmetic():
    # F_1 at p=5 is -(E_1 E_2)^3
    f = expand_product(orbit_product(1, prime_context(5)), 10)
    e1 = generalized_eta(1, 5, 10)
    e2 = generalized_eta(2, 5, 10)
    assert series_agree(f, ((e1 * e2) ** 3).scale(-1))


def brute_product(level: int, factors, steps: int) -> QSeries:
    """prod E_h^e over the raw (h, e) in factors, each from its defining product."""
    want = None
    for h, e in factors:
        denom, coeffs = brute_eta_expansion(h, level, steps)
        factor = QSeries(denom, coeffs, Fraction(min(coeffs), denom) + steps) ** e
        want = factor if want is None else want * factor
    return want


@pytest.mark.parametrize("level, g", [(7, 2), (12, 5), (13, 6)])
def test_from_factors_matches_the_defining_products(level, g):
    # g, -g, N-g, g+N and g+2N all reduce to g, with signs +, -, +, -, +;
    # the even power of E_(-g) drops its sign, the odd powers keep theirs
    factors = [(g, 1), (-g, 2), (level - g, 3), (g + level, 3), (g + 2 * level, -1), (1, 1)]
    prod = EtaProduct.from_factors(level, factors, "mixed")
    assert (prod.exponents, prod.sign) == ({g: 8, 1: 1}, -1)
    assert series_agree(expand_product(prod, 12), brute_product(level, factors, 12))


@pytest.mark.parametrize("level, factors", [
    (level, factors) for level in (7, 12, 13) for factors in (
        [(1, 1), (2, -1)],             # sum e = 0: P(q^N) drops out
        [(1, -3)],                     # sum e = -3
        [(level // 2, -2), (1, 1)],    # sum e = -1
    )
])
def test_products_with_a_zero_or_negative_partition_power(level, factors):
    got = expand_product(EtaProduct.from_factors(level, factors, "x"), 30)
    assert got.denom == 24 * level
    assert got == brute_product(level, factors, 30)  # trunc included


def test_expand_product_uses_no_generalized_eta(monkeypatch):
    # products come from theta_g^e and P(q^N)^(sum e), not from expanded E_g
    def no_eta(*args):
        raise AssertionError("generalized_eta called")

    monkeypatch.setattr("etacover.eta.generalized_eta", no_eta)
    ctx = prime_context(13)
    cases = [(orbit_product(1, ctx), orbit_factors(1, ctx), 200)]
    triplet = find_triplet(47)
    cases.append((triplet_product(triplet, 47), [(h, 2) for h in triplet], 300))
    for prod, factors, prec in cases:
        # the raw factors carry the reduction signs themselves
        assert expand_product(prod, prec) == brute_product(prod.level, factors, prec), prod.label


def test_squared_product():
    f = orbit_product(1, prime_context(5))
    sq = f.squared()
    assert sq.exponents == {1: 6, 2: 6}
    assert sq.sign == 1
    assert sq.label == "(F_1)^2"
    assert series_agree(expand_product(sq, 8), expand_product(f, 8) ** 2)


def test_expansions_hold_int_coefficients_led_by_a_unit():
    series = [generalized_eta(g, 13, 30) for g in range(1, 13)]
    series += [classical_eta(scale, 30) for scale in (1, 2, 7, 24)]
    for p in (5, 7, 11, 13, 23):
        ctx = prime_context(p)
        series += [expand_product(orbit_product(h, ctx), 20) for h in (1, 2, -1)]
        series.append(eta_quotient_series(ctx, 20))
    series += [expand_product(triplet_product(find_triplet(p), p), 20) for p in (11, 23)]
    for s in series:
        assert all(type(c) is int for c in s.coeffs.values())
        assert s.leading()[1] in (1, -1)


def test_weight_sums():
    # is_modular_unit decides on (sum e, sum g^2*e); the comments list
    # (sum e, sum g*e, sum g^2*e), and each case below is settled by the
    # one congruence named beside it.  The parity of sum g*e is never
    # tested: g^2 == g mod 2, so it follows from sum g^2*e
    cases = [
        (5, {1: 3, 2: 3}, False),   # F_1: (6, 9, 15), sum e not 0 mod 12
        (5, {1: 6, 2: 6}, True),    # F_1^2: (12, 18, 30)
        (5, {1: 12}, False),        # (12, 12, 12): sum g^2*e not 0 mod 5
        (5, {1: 11, 2: 1}, True),   # (12, 13, 15): odd level, mod 5 suffices
        (6, {1: 12}, True),         # (12, 12, 12): 0 mod 2*6
        (12, {1: 12}, False),       # (12, 12, 12): even level needs mod 2*12
    ]
    for level, exponents, want in cases:
        prod = EtaProduct(level=level, exponents=exponents, sign=1, label="sums")
        assert is_modular_unit(prod) is want, (level, exponents)


def test_modular_unit_needs_no_separate_parity_rule():
    # the rule with the parity of sum g*e spelled out, on every exponent
    # map with |e| <= 3 at even levels, where it used to be tested
    agreed = 0
    for level in (4, 6, 8, 12):
        indices = range(1, level // 2 + 1)
        for exps in product(range(-3, 4), repeat=len(indices)):
            exponents = {g: e for g, e in zip(indices, exps) if e}
            if not exponents:
                continue
            s0 = sum(exps)
            s1 = sum(g * e for g, e in zip(indices, exps))
            s2 = sum(g * g * e for g, e in zip(indices, exps))
            old = s0 % 12 == 0 and s1 % 2 == 0 and s2 % (2 * level) == 0
            assert is_modular_unit(EtaProduct(level, exponents, 1, "e")) is old, exponents
            agreed += old
    assert agreed > 0


# -- triplets and the G unit -----------------------------------------------


def test_find_triplet_frozen():
    assert find_triplet(11) == (1, 1, 3)
    assert find_triplet(23) == (1, 2, 8)
    assert find_triplet(47) == (1, 2, 18)
    assert find_triplet(59) == (1, 1, 23)


def test_find_triplet_matches_exhaustive_search():
    for p in (11, 23, 47, 59, 71, 83):
        trip = find_triplet(p)
        assert trip == smallest_triplet(p)
        assert sum(t * t for t in trip) % p == 0
        assert all(1 <= t <= (p - 1) // 2 for t in trip)


def test_find_triplet_rejects_other_primes():
    for p in (5, 7, 13, 17, 19, 29):
        with pytest.raises(ValueError):
            find_triplet(p)


def test_triplet_product_structure():
    t = triplet_product((1, 1, 3), 11)
    assert t.exponents == {1: 4, 3: 2}
    assert t.sign == 1
    assert t.label == "G_(1,1,3)"
    sq = t.squared()
    assert sq.exponents == {1: 8, 3: 4}


# -- modularity criterion --------------------------------------------------


def test_squared_units_pass_modularity():
    for p in (5, 7, 13, 17, 29, 37):
        f = orbit_product(1, prime_context(p))
        assert is_modular_unit(f.squared())
    assert is_modular_unit(triplet_product(find_triplet(11), 11).squared())


def test_modularity_fails_on_perturbed_exponent():
    f = orbit_product(1, prime_context(13)).squared()
    bumped = dict(f.exponents)
    bumped[1] += 1
    broken = EtaProduct(level=f.level, exponents=bumped, sign=f.sign, label="broken")
    assert not is_modular_unit(broken)


def test_single_factor_is_not_a_unit():
    e = EtaProduct(level=5, exponents={1: 1}, sign=1, label="E_1")
    assert not is_modular_unit(e)


# -- the eta quotient z ----------------------------------------------------


def test_z_leading_exponents():
    for p, want in ((5, Fraction(-1, 2)), (7, Fraction(-1, 2)),
                    (11, Fraction(-5, 2)), (13, Fraction(-1, 2)),
                    (19, Fraction(-3, 2))):
        z = eta_quotient_series(prime_context(p), 6)
        assert z.leading()[0] == want


def test_z_is_minus_F1_at_5():
    ctx = prime_context(5)
    z = eta_quotient_series(ctx, 10)
    f1 = expand_product(orbit_product(1, ctx), 10)
    assert series_agree(z, f1.scale(-1))


# -- cusp-local leading exponents ------------------------------------------


def test_leading_exponent_at_identity_is_global():
    ident = SL2Matrix.identity()
    for level in (5, 7, 11):
        for g in range(1, (level - 1) // 2 + 1):
            assert leading_exponent_at(g, level, ident) == leading_exponent(g, level)


def test_leading_exponent_at_zero_cusp():
    sec = Cusp(0, 1).section()
    # c coprime to the level: delta = P2(a*g)/(2*level) = (1/6)/(2*level)
    assert leading_exponent_at(1, 5, sec) == Fraction(1, 60)
    assert leading_exponent_at(2, 5, sec) == Fraction(1, 60)
