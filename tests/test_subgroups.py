import random
from fractions import Fraction

import pytest

import etacover.subgroups
from etacover.exact import RootOfUnity, is_prime, prime_context
from etacover.numeric import balanced_samples
from etacover.subgroups import (
    Cusp,
    SL2Matrix,
    Subgroup,
    cusp_set,
    cusp_width,
    cusps_equivalent,
    dlog,
    epsilon_factor,
    eta_multiplier,
    gamma2_generator,
    is_member,
    lift_with_upper_left,
    psl_index,
    quadratic_character,
    quotient_character,
    quotient_structure,
    random_member,
    sign_character,
)
from oracles import enumerate_quotient_structure, scan_cusp_set

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
    assert m.entries() == (2, 1, 5, 3)
    with pytest.raises(ValueError):
        SL2Matrix.parse("2,1,5")
    with pytest.raises(ValueError):
        SL2Matrix.parse("1,1,1,1")


def test_matrix_group_ops():
    rng = random.Random(7)
    for _ in range(50):
        m = random_sl2(rng)
        assert (m * m.inverse()).entries() == (1, 0, 0, 1)
        assert (-m).entries() == tuple(-x for x in m.entries())
    assert (S * S).entries() == (-1, 0, 0, -1)


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
        m = random_member(Subgroup.GAMMA0, ctx, rng)
        for pt in balanced_samples(m):
            z = pt.as_complex()
            assert abs(m.apply(z) - exact_apply(m, z)) < 1e-14, m.entries()


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


def test_quadratic_character_multiplicative():
    rng = random.Random(3)
    for p in (13, 17, 29):
        ctx = prime_context(p)
        for _ in range(40):
            a = random_member(Subgroup.GAMMA2, ctx, rng)
            b = random_member(Subgroup.GAMMA2, ctx, rng)
            lhs = quadratic_character(a * b, ctx)
            assert lhs == quadratic_character(a, ctx) * quadratic_character(b, ctx)


def test_quadratic_character_is_legendre_for_5_mod_8():
    # for p == 5 mod 8 the value on a Gamma2 element is the Legendre
    # symbol of its lower-right entry
    rng = random.Random(5)
    for p in (5, 13, 29, 37):
        ctx = prime_context(p)
        for _ in range(30):
            m = random_member(Subgroup.GAMMA2, ctx, rng)
            legendre = pow(m.d % p, (p - 1) // 2, p)
            legendre = 1 if legendre == 1 else -1
            assert quadratic_character(m, ctx) == legendre


def test_quadratic_character_trivial_on_gamma1():
    rng = random.Random(9)
    ctx = prime_context(13)
    for _ in range(30):
        m = random_member(Subgroup.GAMMA1, ctx, rng)
        assert quadratic_character(m, ctx) == 1


# -- the eta multiplier ----------------------------------------------------


def test_epsilon_frozen_values():
    assert epsilon_factor(1, 0, 1, 1) == RootOfUnity(12, 11)
    assert epsilon_factor(0, -1, 1, 0) == RootOfUnity(4, 3)
    assert epsilon_factor(1, 1, 0, 1) == RootOfUnity(12, 1)


def test_epsilon_sixth_power_is_sign_character():
    rng = random.Random(23)
    for _ in range(200):
        m = random_sl2(rng)
        want = RootOfUnity.from_sign(sign_character(m))
        assert epsilon_factor(m.a, m.b, m.c, m.d) ** 6 == want


def test_eta_multiplier_translation():
    phase, new_g = eta_multiplier(1, 5, T)
    assert phase == RootOfUnity(60, 1)  # e^(pi*i*5*B(1/5)) = e^(pi*i/30)
    assert new_g == 1
    phase_back, _ = eta_multiplier(1, 5, SL2Matrix.translation(-1))
    assert phase_back == RootOfUnity(60, -1)
    # -T^b and T^b act identically on the upper half plane
    assert eta_multiplier(1, 5, -T) == eta_multiplier(1, 5, T)


def test_eta_multiplier_index_motion():
    ctx = prime_context(5)
    rng = random.Random(31)
    for _ in range(20):
        m = random_member(Subgroup.GAMMA0, ctx, rng)
        if m.c == 0:
            continue
        _, new_g = eta_multiplier(2, 5, m)
        assert new_g == m.a * 2


# -- membership ------------------------------------------------------------


def test_membership_chain():
    rng = random.Random(17)
    for p in (5, 7, 11, 13, 29):
        ctx = prime_context(p)
        for _ in range(25):
            m = random_member(Subgroup.GAMMA2_PRIME, ctx, rng)
            assert is_member(m, Subgroup.GAMMA2, ctx)
            assert is_member(m, Subgroup.GAMMA0, ctx)
            m1 = random_member(Subgroup.GAMMA1, ctx, rng)
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


def test_lift_with_upper_left():
    for p in (5, 13, 29):
        for a in range(1, p):
            m = lift_with_upper_left(a, p)
            assert m.a == a and m.c % p == 0
    with pytest.raises(ValueError):
        lift_with_upper_left(5, 5)


def test_gamma2_generator():
    for p in (5, 13, 17, 29):
        ctx = prime_context(p)
        m = gamma2_generator(ctx)
        assert is_member(m, Subgroup.GAMMA2, ctx)
        assert not is_member(m, Subgroup.GAMMA1, ctx)


def test_random_member_hits_stated_group():
    rng = random.Random(41)
    for p in (5, 11, 13, 37):
        ctx = prime_context(p)
        for group in Subgroup:
            for _ in range(15):
                m = random_member(group, ctx, rng)
                assert is_member(m, group, ctx)


# -- quotient structure ----------------------------------------------------


def test_quotient_character_is_multiplicative():
    rng = random.Random(12)
    for p in (5, 7, 13, 29):
        ctx = prime_context(p)
        for _ in range(30):
            a = random_member(Subgroup.GAMMA2, ctx, rng)
            b = random_member(Subgroup.GAMMA2, ctx, rng)
            assert quotient_character(ctx, a * b) == quotient_character(ctx, a) * quotient_character(ctx, b)


def test_quotient_character_kernel_is_gamma2_prime():
    rng = random.Random(13)
    for p in (5, 7, 11, 13, 29):
        ctx = prime_context(p)
        for _ in range(40):
            m = random_member(Subgroup.GAMMA2, ctx, rng)
            assert quotient_character(ctx, m).is_one() == is_member(
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
    inf = Cusp.infinity()
    assert (inf.a, inf.c) == (1, 0)
    assert str(inf) == "inf"
    assert str(Cusp.from_pair(2, 11)) == "2/11"
    assert Cusp.from_pair(4, 10) == Cusp.from_pair(2, 5)
    sec = Cusp.from_pair(2, 5).section()
    assert (sec.a, sec.c) == (2, 5)


def test_cusp_equivalence_on_gamma0():
    ctx = prime_context(5)
    # all nonzero rationals with denominator prime to 5 collapse to 0
    assert cusps_equivalent(Cusp.from_pair(0, 1), Cusp.from_pair(1, 2), Subgroup.GAMMA0, ctx)
    assert cusps_equivalent(Cusp.from_pair(1, 5), Cusp.infinity(), Subgroup.GAMMA0, ctx)
    assert not cusps_equivalent(Cusp.from_pair(0, 1), Cusp.infinity(), Subgroup.GAMMA0, ctx)


def test_cusp_widths_on_gamma0():
    for p in (5, 11, 13):
        ctx = prime_context(p)
        assert cusp_width(Cusp.infinity(), Subgroup.GAMMA0, ctx) == 1
        assert cusp_width(Cusp.from_pair(0, 1), Subgroup.GAMMA0, ctx) == p


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
    table = dict(cusp_set(Subgroup.GAMMA0, ctx))
    assert len(table) == 2
    assert table[Cusp.infinity()] == 1
    # the zero class is represented by 1/1 = T(0)
    assert table[Cusp.from_pair(1, 1)] == 5
    assert cusps_equivalent(Cusp.from_pair(1, 1), Cusp.from_pair(0, 1), Subgroup.GAMMA0, ctx)


def test_cusp_set_width_sums():
    # sum of widths equals the index in PSL(2, Z); this is the certificate
    # that the representative list is complete and inequivalent
    for p in (5, 7, 11, 13, 17, 19):
        ctx = prime_context(p)
        for group in Subgroup:
            table = cusp_set(group, ctx)
            assert sum(w for _, w in table) == psl_index(group, ctx), (p, group)
            for (x, _), (y, _) in zip(table, table[1:]):
                assert not cusps_equivalent(x, y, group, ctx)


def test_cusp_set_gamma2_count():
    # 2k cusps on the intermediate curve for these primes
    for p, want in ((11, 10), (13, 2), (17, 8), (19, 6)):
        ctx = prime_context(p)
        assert len(cusp_set(Subgroup.GAMMA2, ctx)) == want


def test_gamma1_cusp_count():
    ctx = prime_context(11)
    table = cusp_set(Subgroup.GAMMA1, ctx)
    assert len(table) == 10
    widths = sorted(w for _, w in table)
    assert widths == [1, 1, 1, 1, 1, 11, 11, 11, 11, 11]


def test_cusp_set_matches_scan():
    # the closed form against the scan, as ordered lists of (cusp, width)
    for p in filter(is_prime, range(5, 60)):
        ctx = prime_context(p)
        for group in Subgroup:
            assert cusp_set(group, ctx) == scan_cusp_set(group, ctx), (p, group)


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
        assert sum(w for _, w in table) == psl_index(group, ctx), group
