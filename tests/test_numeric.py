"""Floating-point backend: sample points, evaluators, transformation checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from etacover.eta import (
    classical_eta,
    eta_quotient_series,
    expand_product,
    generalized_eta,
    orbit_product,
    triplet_product,
)
from etacover.exact import prime_context
from etacover.numeric import (
    DEFAULT_SAMPLES,
    UpperHalfPoint,
    balanced_samples,
    check_E_transform,
    check_F_transform,
    check_G_transform,
    check_invariance,
    eval_classical_eta,
    eval_generalized_eta,
    eval_product,
    eval_series,
    _terms_for,
)
from etacover.qseries import PrecisionError, QSeries
from etacover.subgroups import SL2Matrix, Subgroup, gamma2_generator, lift_with_upper_left, random_member

S = SL2Matrix(0, -1, 1, 0)
T = SL2Matrix.translation(1)


# -- points and term counts -----------------------------------------------


def test_point_must_be_in_upper_half_plane():
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, -1.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(0.5, 0.0)
    assert UpperHalfPoint(0.25, 1.0).as_complex() == 0.25 + 1.0j


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


_E15 = generalized_eta(1, 5, 25)


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(min_value=-0.5, max_value=0.5),
    im=st.floats(min_value=0.7, max_value=2.0),
)
def test_backends_agree_on_random_points(re, im):
    tau = UpperHalfPoint(re, im)
    a = eval_series(_E15, tau)
    b = eval_generalized_eta(1, 5, tau)
    assert abs(a - b) <= 1e-10 * abs(b)


def test_eval_series_refuses_visible_tail():
    stub = QSeries.one(1, 3)
    with pytest.raises(PrecisionError):
        eval_series(stub, UpperHalfPoint(0.0, 0.8))
    # high enough up the tail really is below double noise
    assert eval_series(stub, UpperHalfPoint(0.0, 2.0)) == 1


# -- transformation residuals ---------------------------------------------


def test_E_transform_identity_and_translation():
    eye = SL2Matrix(1, 0, 0, 1)
    assert check_E_transform(1, 5, eye) < 1e-14
    assert check_E_transform(2, 5, T) < 1e-12
    assert check_E_transform(1, 5, -eye) < 1e-12


def test_E_transform_random_gamma0():
    ctx = prime_context(5)
    rng = random.Random(11)
    for _ in range(5):
        m = random_member(Subgroup.GAMMA0, ctx, rng)
        assert check_E_transform(1, 5, m) < 1e-9


def test_E_transform_every_index():
    # certify samples E_g at g in {1, 2, g mod p} only; the unit's laws
    # compose the multiplier at every index of its orbit
    for p in (5, 7, 11, 13, 23, 37):
        ctx = prime_context(p)
        rng = random.Random(p)
        for _ in range(5):
            m = random_member(Subgroup.GAMMA0, ctx, rng)
            pts = balanced_samples(m)
            worst = max(check_E_transform(g, p, m, pts) for g in range(1, p))
            assert worst < 1e-8, (p, m.entries(), worst)


def test_F_transform_rejects_missing_branch_and_nonmembers():
    with pytest.raises(ValueError):
        check_F_transform(prime_context(11), 1, T)
    with pytest.raises(ValueError):
        check_F_transform(prime_context(5), 1, S)


def test_F_transform_small_residuals():
    ctx5 = prime_context(5)
    assert check_F_transform(ctx5, 1, gamma2_generator(ctx5)) < 1e-9
    ctx17 = prime_context(17)
    m = lift_with_upper_left(3, 17)  # in Gamma0 but not Gamma2: dlog(3) = 1
    assert check_F_transform(ctx17, 1, m) < 1e-9


def test_G_transform_members_and_rejects():
    ctx = prime_context(11)
    rng = random.Random(7)
    for _ in range(4):
        m = random_member(Subgroup.GAMMA1, ctx, rng)
        assert check_G_transform(11, (1, 1, 3), m, balanced_samples(m)) < 1e-8
    with pytest.raises(ValueError):
        check_G_transform(11, (1, 1, 3), S)
    with pytest.raises(ValueError):
        check_G_transform(11, (1, 1, 3), lift_with_upper_left(2, 11))


def test_invariance_fails_on_wrong_factor():
    unit = triplet_product((1, 1, 3), 11).squared()
    m = random_member(Subgroup.GAMMA1, prime_context(11), random.Random(3))
    pts = balanced_samples(m)
    assert check_invariance(unit, m, samples=pts) < 1e-8
    assert check_invariance(unit, m, factor=-1, samples=pts) > 1


def test_balanced_samples_shapes():
    assert balanced_samples(T) == DEFAULT_SAMPLES[:2]
    m = SL2Matrix(1, 0, 22, 1)
    pts = balanced_samples(m)
    assert len(pts) == 2
    assert all(pt.im == 1.0 / 22 for pt in pts)
    center = -m.d / m.c
    assert abs(pts[0].re + pts[1].re - 2 * center) < 1e-12
    assert pts[1].re - pts[0].re == pytest.approx(0.6 / 22)
