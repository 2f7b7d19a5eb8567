import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import etacover.subgroups
from etacover.eta import EtaProduct, merge_factors
from etacover.exact import is_prime, prime_context
from etacover.numeric import balanced_samples
from etacover.subgroups import (
    SL2Matrix,
    Subgroup,
    cusp_name,
    cusp_set,
    cusp_width,
    cusps_equivalent,
    epsilon_factor,
    eta_multiplier,
    h_residues,
    is_member,
    lift_with_upper_left,
    multiplier_turns,
    psl_index,
    quadratic_character,
    quotient_structure,
    random_member,
    section,
    sign_character,
)
from oracles import (
    character_modulus,
    coset_sweep,
    dlog,
    elliptic_elements,
    enumerate_quotient_structure,
    genus,
    half_turn_eta_multiplier,
    quotient_character,
    rademacher_eta_squared_multiplier,
    random_group_member,
    scan_cusp_set,
    transform_product,
    turns,
)

S = SL2Matrix(0, -1, 1, 0)
T = SL2Matrix.translation(1)


def random_sl2(rng, n_letters=8) -> SL2Matrix:
    """Random word in S and T^k, small entries."""
    m = SL2Matrix.identity()
    for _ in range(rng.randrange(1, n_letters)):
        if rng.random() < 0.5:
            m = m * S
        else:
            m = m * SL2Matrix.translation(rng.randrange(-3, 4))
    return m


# -- matrices --------------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(ValueError):
        SL2Matrix(1, 0, 0, 2)
    with pytest.raises(ValueError):
        SL2Matrix(2, 0, 0, 0)


def test_matrix_parse_roundtrip():
    m = SL2Matrix.parse("2,1,5,3")
    assert tuple(m) == (2, 1, 5, 3)
    with pytest.raises(ValueError):
        SL2Matrix.parse("2,1,5")
    with pytest.raises(ValueError):
        SL2Matrix.parse("1,1,1,1")


def test_matrix_group_ops():
    rng = random.Random(7)
    for _ in range(50):
        m = random_sl2(rng)
        assert tuple(m * m.inverse()) == (1, 0, 0, 1)
        assert tuple(-m) == tuple(-x for x in m)
    assert tuple(S * S) == (-1, 0, 0, -1)


def test_matrix_apply_moebius():
    z = 0.3 + 1.1j
    assert abs(T.apply(z) - (z + 1)) < 1e-15
    assert abs(S.apply(z) - (-1 / z)) < 1e-15
    m = SL2Matrix(2, 1, 5, 3)
    assert abs(m.apply(z) - (2 * z + 1) / (5 * z + 3)) < 1e-14


def exact_apply(m: SL2Matrix, z: complex) -> complex:
    """(a z + b)/(c z + d) in Fractions from the exact binary value of z."""
    x, y = Fraction(z.real), Fraction(z.imag)
    num_re, num_im = m.a * x + m.b, m.a * y
    den_re, den_im = m.c * x + m.d, m.c * y
    norm = den_re * den_re + den_im * den_im
    return complex((num_re * den_re + num_im * den_im) / norm,
                   (num_im * den_re - num_re * den_im) / norm)


def test_matrix_apply_large_entries_matches_exact():
    # near -d/c the numerator a z + b cancels to about 1/c; the quotient
    # form was off by about 1e-13 here and by 1e-11 on certify's matrices
    # at p = 6101
    m = SL2Matrix(18305, 2287, 74444402, 9300975)
    for z in (complex(-m.d / m.c, 1 / m.c), complex((0.3 - m.d) / m.c, 1 / m.c)):
        want = exact_apply(m, z)
        assert abs(m.apply(z) - want) <= 1e-15 * max(1, abs(want)), z
    ctx = prime_context(6101)
    rng = random.Random(1)
    for _ in range(50):
        m = random_member(ctx, rng)
        for z in balanced_samples(m):
            assert abs(m.apply(z) - exact_apply(m, z)) < 1e-14, tuple(m)


# -- characters ------------------------------------------------------------


def test_sign_character_frozen():
    assert sign_character(T) == -1
    assert sign_character(S) == -1
    assert sign_character(SL2Matrix.identity()) == 1
    assert sign_character(-SL2Matrix.identity()) == 1
    assert sign_character(SL2Matrix(1, 2, 0, 1)) == 1


def test_sign_character_is_a_character():
    rng = random.Random(11)
    for _ in range(200):
        a, b = random_sl2(rng), random_sl2(rng)
        assert sign_character(a * b) == sign_character(a) * sign_character(b)
        assert sign_character(-a) == sign_character(a)


def test_sign_character_order_two_exists():
    assert any(sign_character(m) == -1 for m in (S, T))


def test_dlog():
    ctx = prime_context(5)
    for n in range(4):
        assert dlog(ctx, pow(ctx.g, n, 5)) == n
    with pytest.raises(ValueError):
        dlog(ctx, 5)


def test_quadratic_character_values():
    ctx = prime_context(13)
    assert quadratic_character(SL2Matrix.identity(), ctx) == 1
    assert quadratic_character(T, ctx) == 1  # a = 1 is an even power of g
    m = lift_with_upper_left(pow(ctx.g, ctx.k, 13), 13)
    assert quadratic_character(m, ctx) == -1


def test_quadratic_character_requires_even_ell():
    ctx7 = prime_context(7)
    with pytest.raises(ValueError):
        quadratic_character(SL2Matrix.identity(), ctx7)


def test_quadratic_character_requires_membership():
    ctx = prime_context(13)
    with pytest.raises(ValueError):
        quadratic_character(S, ctx)
    # membership is decided by the one power that gives the value: c % p
    # first, then a^ell = +-1 (ell = 2 at p = 101), both with one error
    ctx = prime_context(101)
    for m in (S, lift_with_upper_left(ctx.g, 101)):
        with pytest.raises(ValueError) as info:
            quadratic_character(m, ctx)
        assert str(info.value) == f"{tuple(m)} is not in Gamma2(101)"


@pytest.mark.parametrize("p", [13, 101, 10009])
def test_gamma2_prime_membership_takes_two_powers(monkeypatch, p):
    # is_member takes a^ell once for the Gamma2 test and quadratic_character
    # once more, for its own membership check and its value together
    ctx = prime_context(p)
    rng = random.Random(p)
    draws = [random_group_member(Subgroup.GAMMA2, ctx, rng) for _ in range(200)]
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(etacover.subgroups, "pow", counting, raising=False)
    for m in draws:
        calls.clear()
        is_member(m, Subgroup.GAMMA2_PRIME, ctx)
        assert calls == [(m.a, ctx.ell, p)] * 2, m


def test_quadratic_character_multiplicative():
    rng = random.Random(3)
    for p in (13, 17, 29):
        ctx = prime_context(p)
        for _ in range(40):
            a = random_group_member(Subgroup.GAMMA2, ctx, rng)
            b = random_group_member(Subgroup.GAMMA2, ctx, rng)
            lhs = quadratic_character(a * b, ctx)
            assert lhs == quadratic_character(a, ctx) * quadratic_character(b, ctx)


def test_quadratic_character_is_legendre_for_5_mod_8():
    # for p == 5 mod 8 the value on a Gamma2 element is the Legendre
    # symbol of its lower-right entry
    rng = random.Random(5)
    for p in (5, 13, 29, 37):
        ctx = prime_context(p)
        for _ in range(30):
            m = random_group_member(Subgroup.GAMMA2, ctx, rng)
            legendre = pow(m.d % p, (p - 1) // 2, p)
            legendre = 1 if legendre == 1 else -1
            assert quadratic_character(m, ctx) == legendre


def test_quadratic_character_trivial_on_gamma1():
    rng = random.Random(9)
    ctx = prime_context(13)
    for _ in range(30):
        m = random_group_member(Subgroup.GAMMA1, ctx, rng)
        assert quadratic_character(m, ctx) == 1


# -- the eta multiplier ----------------------------------------------------


def test_epsilon_frozen_values():
    # twelfths of a turn
    assert epsilon_factor(1, 0, 1, 1) == 11
    assert epsilon_factor(0, -1, 1, 0) == 9
    assert epsilon_factor(1, 1, 0, 1) == 1


def test_epsilon_sixth_power_is_sign_character():
    rng = random.Random(23)
    for _ in range(200):
        m = random_sl2(rng)
        want = 0 if sign_character(m) == 1 else 6  # twelfths: -1 is half a turn
        assert 6 * epsilon_factor(m.a, m.b, m.c, m.d) % 12 == want


def sl2_matrices(bound: int):
    """Every (a, b, c, d) in SL(2,Z) with entries of absolute value <= bound."""
    for c in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            if gcd(c, d) != 1:
                continue
            if c == 0:
                yield from ((d, b, 0, d) for b in range(-bound, bound + 1))
                continue
            for a in range(-bound, bound + 1):
                b, rest = divmod(a * d - 1, c)
                if not rest and abs(b) <= bound:
                    yield a, b, c, d


def test_epsilon_factor_matches_rademacher():
    # exact: epsilon_factor is the eta^2 multiplier, every branch of it
    seen = {-1: 0, 0: 0, 1: 0}
    for a, b, c, d in sl2_matrices(30):
        assert turns(epsilon_factor(a, b, c, d), 12) == rademacher_eta_squared_multiplier(a, b, c, d)
        seen[(c > 0) - (c < 0)] += 1
    assert seen == {-1: 4381, 0: 122, 1: 4381}


def test_eta_multiplier_translation():
    phase, new_g = eta_multiplier(1, 5, T)
    assert phase == 2  # e^(pi*i*5*B(1/5)) = e^(pi*i/30) = e^(2*pi*i*2/120)
    assert new_g == 1
    phase_back, _ = eta_multiplier(1, 5, SL2Matrix.translation(-1))
    assert phase_back == 118  # -2 mod 24N
    # -T^b and T^b act identically on the upper half plane
    assert eta_multiplier(1, 5, -T) == eta_multiplier(1, 5, T)


def test_eta_multiplier_index_motion():
    ctx = prime_context(5)
    rng = random.Random(31)
    for _ in range(20):
        m = random_member(ctx, rng)
        if m.c == 0:
            continue
        _, new_g = eta_multiplier(2, 5, m)
        assert new_g == m.a * 2


def _multiplier_cases():
    """(level, matrix, indices) covering both branches of the multiplier.

    Every random_member draw of the matrix golden, +-T^b for b in -5..5 at
    levels 2..24, and random Gamma0(N) matrices for N in 2..60, where even
    levels exercise the c/N and b*N parities of epsilon.
    """
    golden = json.loads((Path(__file__).parent / "data" / "matrix_golden.json").read_text())
    for key, mats in golden["draws"].items():
        p = int(key.split("/")[0])
        for entries in mats:
            yield p, SL2Matrix(*entries), range(1, p, 1 + p // 40)
    for level in range(2, 25):
        for b in range(-5, 6):
            for m in (SL2Matrix.translation(b), -SL2Matrix.translation(b)):
                yield level, m, range(1, level)
    rng = random.Random(59)
    for level in range(2, 61):
        for _ in range(8):
            c = level * rng.choice((-3, -2, -1, 1, 2, 3))
            a = rng.choice([x for x in range(-4 * level, 4 * level) if gcd(x, c) == 1])
            d = pow(a, -1, abs(c))
            m = SL2Matrix(a, (a * d - 1) // c, c, d) * SL2Matrix.translation(rng.randint(-3, 3))
            yield level, (-m if rng.random() < 0.5 else m), range(1, level)


def test_eta_multiplier_matches_half_turn_oracle():
    # the integer exponent mod 24N against the Fraction-of-a-half-turn form
    count = 0
    for level, m, indices in _multiplier_cases():
        for g in indices:
            t, new_index = eta_multiplier(g, level, m)
            assert (turns(t, 24 * level), new_index) == half_turn_eta_multiplier(g, level, m), (
                level, tuple(m), g)
            count += 1
    assert count > 20000


def test_transform_product_matches_half_turn_oracle():
    # the whole product's multiplier_turns, and the factor-by-factor
    # transform_product of the oracles, against the product of the
    # half-turn oracle's turns; the moved product is built alike
    rng = random.Random(61)
    for level, m, _ in _multiplier_cases():
        half = range(1, level // 2 + 1)
        chosen = rng.sample(half, min(len(half), 8))
        exponents = {g: e for g in chosen if (e := rng.randint(-3, 3))} or {1: 1}
        prod = EtaProduct(level, exponents, rng.choice((1, -1)), "P")
        root, moved = transform_product(prod, m)
        want, factors = Fraction(0), []
        for g, e in exponents.items():
            mult, new_index = half_turn_eta_multiplier(g, level, m)
            want += e * mult
            factors.append((new_index, e))
        want_moved = EtaProduct(level, *merge_factors(level, factors, prod.sign), "P")
        want %= 1
        assert root == want, (level, tuple(m), exponents)
        assert turns(multiplier_turns(exponents, level, m), 24 * level) == want
        assert (moved.exponents, moved.sign) == (want_moved.exponents, want_moved.sign)


# -- membership ------------------------------------------------------------


def test_membership_chain():
    rng = random.Random(17)
    for p in (5, 7, 11, 13, 29):
        ctx = prime_context(p)
        for _ in range(25):
            m = random_group_member(Subgroup.GAMMA2_PRIME, ctx, rng)
            assert is_member(m, Subgroup.GAMMA2, ctx)
            assert is_member(m, Subgroup.GAMMA0, ctx)
            m1 = random_group_member(Subgroup.GAMMA1, ctx, rng)
            assert is_member(m1, Subgroup.GAMMA2, ctx)


def test_membership_frozen_cases():
    ctx = prime_context(5)
    assert is_member(T, Subgroup.GAMMA2, ctx)
    assert not is_member(T, Subgroup.GAMMA2_PRIME, ctx)
    assert is_member(-SL2Matrix.identity(), Subgroup.GAMMA2_PRIME, ctx)
    assert not is_member(S, Subgroup.GAMMA0, ctx)
    assert is_member(SL2Matrix(1, 0, 5, 1), Subgroup.GAMMA1, ctx)
    assert is_member(SL2Matrix(2, 1, 5, 3), Subgroup.GAMMA0, ctx)
    assert is_member(SL2Matrix(2, 1, 5, 3), Subgroup.GAMMA2, ctx)  # k = 1 here
    ctx17 = prime_context(17)  # k = 4, dlog(3) = 1
    m = lift_with_upper_left(3, 17)
    assert is_member(m, Subgroup.GAMMA0, ctx17)
    assert not is_member(m, Subgroup.GAMMA2, ctx17)


def test_elliptic_elements_of_gamma2_lie_in_plus_minus_gamma2_prime():
    # no elliptic point of X_2(p) ramifies in X_2'(p): the covering is
    # unramified outside the cusps
    seen = 0
    for p in (q for q in range(5, 2000) if is_prime(q)):
        ctx = prime_context(p)
        for _, m in elliptic_elements(p):
            if is_member(m, Subgroup.GAMMA2, ctx):
                seen += 1
                assert any(is_member(x, Subgroup.GAMMA2_PRIME, ctx) for x in (m, -m)), (p, m)
    assert seen == 886


def test_genus_of_the_four_curves():
    # the genus formula from the elliptic counts, psl_index and cusp_set: an
    # integer >= 0 for each group, the classical closed forms for X_0(p) and
    # X_1(p), and Riemann-Hurwitz for X_2'(p) -> X_2(p), of degree 2 and
    # ramified at every cusp (the widths double) and nowhere else
    x0_offset = {1: 13, 5: 5, 7: 7, 11: -1}
    for p in filter(is_prime, range(5, 2000)):
        ctx, elements = prime_context(p), elliptic_elements(p)
        g = {group: genus(group, ctx, elements) for group in Subgroup}
        assert all(x.denominator == 1 and x >= 0 for x in g.values()), (p, g)
        assert g[Subgroup.GAMMA0] == (p - x0_offset[p % 12]) // 12, p
        assert g[Subgroup.GAMMA1] == (p - 5) * (p - 7) // 24, p
        below, above = cusp_set(Subgroup.GAMMA2, ctx), cusp_set(Subgroup.GAMMA2_PRIME, ctx)
        assert [row[:2] for row in above] == [row[:2] for row in below], p
        ramification = sum(w2 // w - 1 for (*_, w), (*_, w2) in zip(below, above))
        assert ramification == len(below), p
        assert 2 * g[Subgroup.GAMMA2_PRIME] - 2 == 2 * (2 * g[Subgroup.GAMMA2] - 2) + ramification, p


def test_lift_with_upper_left():
    for p in (5, 13, 29):
        for a in range(1, p):
            m = lift_with_upper_left(a, p)
            assert m.a == a and m.c % p == 0
    with pytest.raises(ValueError):
        lift_with_upper_left(5, 5)


def test_gamma2_generator():
    # the lift of g^k, the second element of H, generates Gamma2 over Gamma1
    for p in (5, 13, 17, 29):
        ctx = prime_context(p)
        m = lift_with_upper_left(h_residues(ctx)[1], p)
        assert m.a == pow(ctx.g, ctx.k, p)
        assert is_member(m, Subgroup.GAMMA2, ctx)
        assert not is_member(m, Subgroup.GAMMA1, ctx)


def test_random_member_hits_stated_group():
    # the package draws from Gamma0 alone, the oracle from all four groups,
    # and on Gamma0 both make the same draws
    for p in (5, 11, 13, 37):
        ctx = prime_context(p)
        rng, twin = random.Random(41 + p), random.Random(41 + p)
        for _ in range(15):
            m = random_member(ctx, rng)
            assert is_member(m, Subgroup.GAMMA0, ctx)
            assert m == random_group_member(Subgroup.GAMMA0, ctx, twin)
        for group in Subgroup:
            for _ in range(15):
                assert is_member(random_group_member(group, ctx, rng), group, ctx)


def test_random_member_builds_one_matrix_per_draw(monkeypatch):
    built = []
    check = SL2Matrix.__new__

    def counting(cls, *entries):
        built.append(check(cls, *entries))
        return built[-1]

    monkeypatch.setattr(SL2Matrix, "__new__", counting)
    for p in (5, 13, 101, 1009):
        ctx, rng = prime_context(p), random.Random(p)
        for _ in range(30):
            built.clear()
            m = random_member(ctx, rng)
            # the draw is the one matrix built: no candidate is rejected
            assert len(built) == 1 and built[0] is m


# -- quotient structure ----------------------------------------------------


def test_quotient_character_is_multiplicative():
    rng = random.Random(12)
    for p in (5, 7, 13, 29):
        ctx = prime_context(p)
        for _ in range(30):
            a = random_group_member(Subgroup.GAMMA2, ctx, rng)
            b = random_group_member(Subgroup.GAMMA2, ctx, rng)
            both = quotient_character(ctx, a) + quotient_character(ctx, b)
            assert quotient_character(ctx, a * b) == both % character_modulus(ctx)


def test_quotient_character_kernel_is_gamma2_prime():
    rng = random.Random(13)
    for p in (5, 7, 11, 13, 29):
        ctx = prime_context(p)
        for _ in range(40):
            m = random_group_member(Subgroup.GAMMA2, ctx, rng)
            assert (quotient_character(ctx, m) == 0) == is_member(
                m, Subgroup.GAMMA2_PRIME, ctx
            )


def test_quotient_structure_frozen():
    expected = {
        # p: (index Gamma0/Gamma2, index Gamma2/Gamma1 on curves, order)
        5: (1, 2, 2),
        7: (1, 3, 2),
        11: (5, 1, 10),
        13: (1, 6, 2),
        17: (4, 2, 8),
        29: (7, 2, 14),
        37: (3, 6, 6),
    }
    for p, (idx0, idx1, order) in expected.items():
        qs = quotient_structure(prime_context(p))
        assert qs.index_gamma0_gamma2 == idx0
        assert qs.curve_index_gamma2_gamma1 == idx1
        assert qs.character_order == order
        assert qs.kernel_matches


def test_quotient_order_equals_degree():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        ctx = prime_context(p)
        assert quotient_structure(ctx).character_order == ctx.degree


def test_quotient_structure_matches_enumeration():
    for p in filter(is_prime, range(5, 1001)):
        ctx = prime_context(p)
        assert quotient_structure(ctx) == enumerate_quotient_structure(ctx), p


def test_quotient_structure_lifts_no_residue_classes(monkeypatch):
    lifts = []

    def counted(a, p):
        lifts.append(a)
        return lift_with_upper_left(a, p)

    monkeypatch.setattr(etacover.subgroups, "lift_with_upper_left", counted)
    qs = quotient_structure(prime_context(10009))
    assert qs.kernel_matches and qs.character_order == 2 * 834
    assert len(lifts) <= 4


# -- cusps -----------------------------------------------------------------


def test_cusp_basics():
    # a cusp is its (a, c) pair: named as the tables print it, sent to by
    # its section; a pair that is not coprime, or (a, 0) with a != 1, has none
    assert cusp_name(1, 0) == "inf"
    assert cusp_name(2, 11) == "2/11"
    for a, c in ((4, 10), (3, 0), (0, 0)):
        with pytest.raises(ValueError):
            section(a, c)
    sec = section(2, 5)
    assert (sec.a, sec.c) == (2, 5)


def test_cusp_equivalence_on_gamma0():
    ctx = prime_context(5)
    # all nonzero rationals with denominator prime to 5 collapse to 0
    assert cusps_equivalent((0, 1), (1, 2), Subgroup.GAMMA0, ctx)
    assert cusps_equivalent((1, 5), (1, 0), Subgroup.GAMMA0, ctx)
    assert not cusps_equivalent((0, 1), (1, 0), Subgroup.GAMMA0, ctx)


def test_cusp_widths_on_gamma0():
    for p in (5, 11, 13):
        ctx = prime_context(p)
        assert cusp_width((1, 0), Subgroup.GAMMA0, ctx) == 1
        assert cusp_width((0, 1), Subgroup.GAMMA0, ctx) == p


def test_psl_index_values():
    ctx = prime_context(11)
    assert psl_index(Subgroup.GAMMA0, ctx) == 12
    assert psl_index(Subgroup.GAMMA1, ctx) == 60
    assert psl_index(Subgroup.GAMMA2, ctx) == 60
    assert psl_index(Subgroup.GAMMA2_PRIME, ctx) == 120
    ctx = prime_context(13)
    assert psl_index(Subgroup.GAMMA0, ctx) == 14
    assert psl_index(Subgroup.GAMMA2, ctx) == 14
    assert psl_index(Subgroup.GAMMA2_PRIME, ctx) == 28


def test_cusp_set_gamma0():
    ctx = prime_context(5)
    table = cusp_set(Subgroup.GAMMA0, ctx)
    assert len(table) == 2
    assert (1, 0, 1) in table
    # the zero class is represented by 1/1 = T(0)
    assert (1, 1, 5) in table
    assert cusps_equivalent((1, 1), (0, 1), Subgroup.GAMMA0, ctx)


def test_cusp_set_width_sums():
    # sum of widths equals the index in PSL(2, Z); this is the certificate
    # that the representative list is complete and inequivalent
    for p in (5, 7, 11, 13, 17, 19):
        ctx = prime_context(p)
        for group in Subgroup:
            table = cusp_set(group, ctx)
            assert sum(w for _, _, w in table) == psl_index(group, ctx), (p, group)
            for (a, c, _), (b, d, _) in zip(table, table[1:]):
                assert not cusps_equivalent((a, c), (b, d), group, ctx)


def test_cusp_set_gamma2_count():
    # 2k cusps on the intermediate curve for these primes
    for p, want in ((11, 10), (13, 2), (17, 8), (19, 6)):
        ctx = prime_context(p)
        assert len(cusp_set(Subgroup.GAMMA2, ctx)) == want


def test_gamma1_cusp_count():
    ctx = prime_context(11)
    table = cusp_set(Subgroup.GAMMA1, ctx)
    assert len(table) == 10
    widths = sorted(w for _, _, w in table)
    assert widths == [1, 1, 1, 1, 1, 11, 11, 11, 11, 11]


def test_cusp_set_matches_scan():
    # the closed form against the scan, as ordered lists of (a, c, width)
    for p in filter(is_prime, range(5, 60)):
        ctx = prime_context(p)
        for group in Subgroup:
            want = [(a, c, w) for (a, c), w in scan_cusp_set(group, ctx)]
            assert cusp_set(group, ctx) == want, (p, group)


def test_cusp_set_matches_coset_sweep():
    # the sieve over +-H against the covered-set sweep, rows in order; for
    # Gamma1, +-H = {+-1} and there are (p-1)/2 classes.  Every row is a
    # normalized cusp: c >= 0, gcd(a, c) = 1, and infinity is (1, 0)
    for p in filter(is_prime, range(5, 2000)):
        ctx = prime_context(p)
        for group in Subgroup:
            reps = coset_sweep(group, ctx)
            want = [(1, 0)] + [(r, p) for r in reps[1:]] + [(1, r) for r in reps]
            got = [(a, c) for a, c, _ in cusp_set(group, ctx)]
            assert got == want, (p, group)
            for a, c in got:
                assert c >= 0 and gcd(a, c) == 1 and (c or a == 1), (p, group, a, c)


def test_cusp_set_large_prime():
    # far beyond what the scan finishes; the closed form is linear in p
    ctx = prime_context(1009)
    counts = {
        Subgroup.GAMMA0: 2,
        Subgroup.GAMMA1: ctx.p - 1,
        Subgroup.GAMMA2: 2 * ctx.k,
        Subgroup.GAMMA2_PRIME: 2 * ctx.k,
    }
    for group, count in counts.items():
        table = cusp_set(group, ctx)
        assert len(table) == count, group
        assert sum(w for _, _, w in table) == psl_index(group, ctx), group
