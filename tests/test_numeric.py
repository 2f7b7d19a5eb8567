"""Floating-point backend: sample points, evaluators, transformation checks."""

import cmath
import math
import random
from math import inf, nan

import pytest
from hypothesis import given, settings, strategies as st

from etacover.certify import DEFAULT_SEED, N_RANDOM
from etacover.eta import (
    EtaProduct,
    classical_eta,
    eta_quotient_series,
    expand_product,
    generalized_eta,
    orbit_product,
    triplet_product,
)
from etacover.exact import is_prime, prime_context
from etacover.numeric import (
    DEFAULT_SAMPLES,
    balanced_samples,
    check_E_transform,
    check_E_transforms,
    check_F_transform,
    check_G_transform,
    check_invariance,
    eval_classical_eta,
    eval_generalized_eta,
    eval_product,
    eval_series,
    _as_point,
    _terms_for,
    _times_unit,
)
from etacover.qseries import PrecisionError, QSeries
from etacover.subgroups import (
    SL2Matrix,
    Subgroup,
    eta_multiplier,
    h_residues,
    lift_with_upper_left,
    random_member,
    sign_character,
)
from oracles import per_law_E_transforms, power_eval_generalized_eta, random_group_member

S = SL2Matrix(0, -1, 1, 0)
T = SL2Matrix.translation(1)


# -- points and term counts -----------------------------------------------


def test_point_must_be_in_upper_half_plane():
    with pytest.raises(ValueError):
        _as_point(complex(0.0, -1.0))
    with pytest.raises(ValueError):
        _as_point(complex(0.5, 0.0))
    assert _as_point(complex(0.25, 1.0)) == 0.25 + 1.0j
    assert all(pt.imag > 0 for pt in DEFAULT_SAMPLES)


def test_evaluators_reject_lower_half_plane():
    with pytest.raises(ValueError):
        eval_generalized_eta(1, 5, complex(0.3, -2.0))
    with pytest.raises(ValueError):
        eval_classical_eta(1, complex(0.0, 0.0))


def test_eval_generalized_eta_index_range():
    with pytest.raises(ValueError):
        eval_generalized_eta(0, 5, 1j)
    with pytest.raises(ValueError):
        eval_generalized_eta(5, 5, 1j)
    assert eval_generalized_eta(4, 5, 1j) != 0


def test_eval_classical_eta_scale():
    with pytest.raises(ValueError):
        eval_classical_eta(0, 1j)


def test_term_count_grows_as_points_sink():
    assert _terms_for(0.5, 1) > _terms_for(2.0, 1)
    # far up the cylinder the floor of 4 factors kicks in
    assert _terms_for(50.0, 5) == 4


# -- exact expansion vs truncated product ---------------------------------

CROSS_CASES = [(1, 5), (2, 5), (3, 7), (5, 12)]


@pytest.mark.parametrize("g,level", CROSS_CASES)
def test_series_matches_product_generalized(g, level):
    series = generalized_eta(g, level, 20)
    for tau in DEFAULT_SAMPLES:
        a = eval_series(series, tau)
        b = eval_generalized_eta(g, level, tau)
        assert abs(a - b) <= 1e-12 * abs(b)


def test_series_matches_product_classical():
    for scale in (1, 5):
        series = classical_eta(scale, 20)
        for tau in DEFAULT_SAMPLES:
            a = eval_series(series, tau)
            b = eval_classical_eta(scale, tau)
            assert abs(a - b) <= 1e-12 * abs(b)


def test_series_matches_product_units():
    ctx = prime_context(5)
    f1 = orbit_product(1, ctx)
    g11 = triplet_product((1, 1, 3), 11)
    for prod, prec in ((f1, 40), (g11, 40)):
        series = expand_product(prod, prec)
        for tau in DEFAULT_SAMPLES:
            a = eval_series(series, tau)
            b = eval_product(prod, tau)
            assert abs(a - b) <= 1e-11 * abs(b)
    z = eta_quotient_series(ctx, 40)
    for tau in DEFAULT_SAMPLES:
        a = eval_series(z, tau)
        b = (eval_classical_eta(1, tau) / eval_classical_eta(5, tau)) ** 3
        assert abs(a - b) <= 1e-11 * abs(b)


def test_series_matches_product_with_negative_exponent():
    # a factor with exponent e != 1 enters as its unit part to the power e
    prod = EtaProduct.from_factors(13, [(1, 2), (2, -1)], "E_1^2/E_2")
    series = expand_product(prod, 40)
    for tau in DEFAULT_SAMPLES:
        a = eval_series(series, tau)
        b = eval_product(prod, tau)
        assert abs(a - b) <= 1e-11 * abs(b)


_E15 = generalized_eta(1, 5, 25)


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(min_value=-0.5, max_value=0.5),
    im=st.floats(min_value=0.7, max_value=2.0),
)
def test_backends_agree_on_random_points(re, im):
    tau = complex(re, im)
    a = eval_series(_E15, tau)
    b = eval_generalized_eta(1, 5, tau)
    assert abs(a - b) <= 1e-10 * abs(b)


def certify_draws(ctx) -> list:
    """verify_transforms' Gamma0 draws, its one RNG stream, each paired with a
    draw from the unit's group off a separate rng."""
    group = Subgroup.GAMMA1 if ctx.ell == 1 else Subgroup.GAMMA2
    rng = random.Random(DEFAULT_SEED + ctx.p)
    gamma0 = [random_member(ctx, rng) for _ in range(N_RANDOM)]
    rng = random.Random(f"{group.value} {DEFAULT_SEED + ctx.p}")
    return [(m, random_group_member(group, ctx, rng)) for m in gamma0]


@pytest.mark.parametrize("p", [5, 13, 101, 1009, 10007])
def test_running_powers_match_power_per_factor(p):
    # certify's matrices at their balanced samples and the images there;
    # the indices are certify's plus p - 1, where the two running powers
    # trade places
    ctx = prime_context(p)
    points = [
        z
        for pair in certify_draws(ctx)
        for m in pair
        for tau in balanced_samples(m)
        for z in (tau, m.apply(tau))
    ]
    worst = 0.0
    for z in points:
        for g in {1, 2, ctx.g % p, p - 1}:
            a = eval_generalized_eta(g, p, z)
            b = power_eval_generalized_eta(g, p, z)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    assert worst <= 1e-12


def test_times_unit_takes_exactly_terms_factor_pairs():
    # |q| near 1, so every factor 1 - q^n moves the value: the product of
    # exactly `terms` pairs (1 - q^(N(m-1)+g)) * (1 - q^(Nm-g)), from the
    # same running powers, and not one pair fewer or more
    q = cmath.exp(2j * math.pi * complex(0.1, 0.01))
    level, g, terms, value = 7, 3, 9, 0.5 + 0.25j
    lo, hi, step, pairs = q ** g, q ** (level - g), q ** level, []
    for _ in range(terms + 1):
        pairs.append((1 - lo) * (1 - hi))
        lo, hi = lo * step, hi * step
    products = [value]
    for pair in pairs:
        products.append(products[-1] * pair)
    assert min(abs(pair - 1) for pair in pairs) > 0.01
    assert len(set(products)) == terms + 2
    point = (2j * math.pi * complex(0.1, 0.01), q, step, terms)
    assert _times_unit(value, g, level, point) == products[terms]


def test_eval_series_refuses_visible_tail():
    stub = QSeries.one(1, 3)
    with pytest.raises(PrecisionError):
        eval_series(stub, complex(0.0, 0.8))
    # high enough up the tail really is below double noise
    assert eval_series(stub, complex(0.0, 2.0)) == 1


# -- transformation residuals ---------------------------------------------


def test_E_transform_identity_and_translation():
    eye = SL2Matrix(1, 0, 0, 1)
    assert check_E_transform(1, 5, eye) < 1e-14
    assert check_E_transform(2, 5, T) < 1e-12
    assert check_E_transform(1, 5, -eye) < 1e-12


@pytest.mark.parametrize("p", [5, 13, 101, 1009, 10007])
def test_batched_residual_is_the_max_over_indices(p):
    ctx = prime_context(p)
    indices = sorted({1, 2, ctx.g % p})
    for m, _ in certify_draws(ctx):
        pts = balanced_samples(m)
        single = max(check_E_transform(g, p, m, pts) for g in indices)
        assert check_E_transforms(indices, p, m, pts) == single


def test_E_residual_is_the_per_law_oracle_bit_for_bit():
    # eps12 once per draw and flat laws change no float operation: every
    # draw certify makes, compared with == against one multiplier per index
    # and one evaluation per side
    for p in [*filter(is_prime, range(5, 1001)), 10007, 100003]:
        ctx = prime_context(p)
        indices = sorted({1, 2, ctx.g % p})
        rng = random.Random(DEFAULT_SEED + p)
        for _ in range(N_RANDOM):
            m = random_member(ctx, rng)
            pts = balanced_samples(m)
            want = per_law_E_transforms(indices, p, m, pts)
            assert check_E_transforms(indices, p, m, pts) == want, (p, tuple(m))


@pytest.mark.parametrize("p", [1433, 3001])
def test_E_residual_on_translations_is_the_per_law_oracle_bit_for_bit(p):
    # at height 1 these levels take q^L past the double range on one side
    indices = sorted({1, 2, prime_context(p).g % p, (p - 1) // 2, p - 1})
    for b in range(-3, 4):
        for m in (SL2Matrix.translation(b), -SL2Matrix.translation(b)):
            for pts in (DEFAULT_SAMPLES, DEFAULT_SAMPLES[:2]):
                want = per_law_E_transforms(indices, p, m, pts)
                assert check_E_transforms(indices, p, m, pts) == want, (p, tuple(m), pts)


def test_batched_residual_checks_every_index():
    with pytest.raises(ValueError):
        check_E_transforms((1, 5), 5, T)
    with pytest.raises(ValueError):
        check_E_transforms((1, 6), 5, T)


def test_E_transform_random_gamma0():
    ctx = prime_context(5)
    rng = random.Random(11)
    for _ in range(5):
        m = random_member(ctx, rng)
        assert check_E_transform(1, 5, m) < 1e-9


def test_E_transform_every_index():
    # certify samples E_g at g in {1, 2, g mod p} only; the unit's laws
    # compose the multiplier at every index of its orbit
    for p in (5, 7, 11, 13, 23, 37):
        ctx = prime_context(p)
        rng = random.Random(p)
        for _ in range(5):
            m = random_member(ctx, rng)
            pts = balanced_samples(m)
            worst = max(check_E_transform(g, p, m, pts) for g in range(1, p))
            assert worst < 1e-8, (p, tuple(m), worst)


@pytest.mark.parametrize("p", [1433, 10007, 100003])
def test_negated_multiplier_fails_on_translations(monkeypatch, p):
    # at height 1, E_1 at level p >= 1433 underflows to 0j; compared at
    # its own scale the law still sees the sign
    def negated_multiplier(g, level, m):
        t, index = eta_multiplier(g, level, m)
        return (t + 12 * level) % (24 * level), index  # times -1: half a turn

    for m in (T, SL2Matrix(-1, 2, 0, -1)):
        assert check_E_transform(1, p, m, DEFAULT_SAMPLES[:2]) < 1e-10
    monkeypatch.setattr("etacover.numeric.eta_multiplier", negated_multiplier)
    for m in (T, SL2Matrix(-1, 2, 0, -1)):
        for g in (1, 2):
            assert check_E_transform(g, p, m, DEFAULT_SAMPLES[:2]) >= 1


def test_E_transform_near_half_level_at_height_one():
    # E_1500 at level 3001 leads with |q|^(-3001/24 + ...), beyond the
    # double range at height 1; the residual divides that scale out
    assert check_E_transform(1500, 3001, T, DEFAULT_SAMPLES[:2]) < 1e-8


def test_F_transform_rejects_missing_branch_and_nonmembers():
    with pytest.raises(ValueError):
        check_F_transform(prime_context(11), 1, T)
    with pytest.raises(ValueError):
        check_F_transform(prime_context(5), 1, S)


def test_F_transform_small_residuals():
    ctx5 = prime_context(5)
    assert check_F_transform(ctx5, 1, lift_with_upper_left(h_residues(ctx5)[1], 5)) < 1e-9
    ctx17 = prime_context(17)
    m = lift_with_upper_left(3, 17)  # in Gamma0 but not Gamma2: dlog(3) = 1
    assert check_F_transform(ctx17, 1, m) < 1e-9


def test_G_transform_members_and_rejects():
    ctx = prime_context(11)
    rng = random.Random(7)
    for _ in range(4):
        m = random_group_member(Subgroup.GAMMA1, ctx, rng)
        assert check_G_transform(11, (1, 1, 3), m, balanced_samples(m)) < 1e-8
    with pytest.raises(ValueError):
        check_G_transform(11, (1, 1, 3), S)
    with pytest.raises(ValueError):
        check_G_transform(11, (1, 1, 3), lift_with_upper_left(2, 11))


def test_invariance_fails_on_wrong_factor():
    unit = triplet_product((1, 1, 3), 11).squared()
    m = random_group_member(Subgroup.GAMMA1, prime_context(11), random.Random(3))
    pts = balanced_samples(m)
    assert check_invariance(unit, m, samples=pts) < 1e-8
    assert check_invariance(unit, m, factor=-1, samples=pts) > 1


@pytest.mark.parametrize("factor", [inf, -inf, nan])
def test_an_overflowing_law_fails_instead_of_reading_zero(factor):
    # a side out of the double range makes the relative error nan, which a
    # max() fold drops; the residual reads inf instead
    f1 = orbit_product(1, prime_context(5))
    eye = SL2Matrix(1, 0, 0, 1)
    assert check_invariance(f1, eye, samples=DEFAULT_SAMPLES[:2]) == 0
    assert check_invariance(f1, eye, factor=factor, samples=DEFAULT_SAMPLES[:2]) == inf


@pytest.mark.parametrize("p", [1453, 10009])
def test_unit_laws_at_large_primes(p):
    # orbit indices near p/2 lead with about |q|^(-p/24) each; the residual
    # takes the product's leading power once, at its own scale
    ctx = prime_context(p)
    f1 = orbit_product(1, ctx)
    assert check_invariance(f1, T) >= 1  # psi(T) = -1
    assert check_invariance(f1, T, factor=-1) < 1e-10
    draws = [m for m, _ in certify_draws(ctx)]
    assert max(check_F_transform(ctx, 1, m, balanced_samples(m)) for m in draws) < 1e-10


@pytest.mark.parametrize("p", [1453, 10009])
def test_negated_psi_fails_the_F_residual(monkeypatch, p):
    ctx = prime_context(p)
    monkeypatch.setattr("etacover.numeric.sign_character", lambda m: -sign_character(m))
    for m, _ in certify_draws(ctx):
        assert check_F_transform(ctx, 1, m, balanced_samples(m)) >= 1


def test_balanced_samples_shapes():
    assert balanced_samples(T) == DEFAULT_SAMPLES[:2]
    m = SL2Matrix(1, 0, 22, 1)
    pts = balanced_samples(m)
    assert len(pts) == 2
    assert all(pt.imag == 1.0 / 22 for pt in pts)
    center = -m.d / m.c
    assert abs(pts[0].real + pts[1].real - 2 * center) < 1e-12
    assert pts[1].real - pts[0].real == pytest.approx(0.6 / 22)
