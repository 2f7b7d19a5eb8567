"""Floating-point evaluation of the eta functions and transformation checks.

Sample points are plain complex numbers, which ``_as_point`` rejects off
the upper half plane.  Truncated products converge like |q|^(level*terms),
so the number of factors is chosen adaptively from Im(tau): transformed
points gamma*tau sit much lower in the upper half plane than the samples
and need more terms, not a different algorithm.

An eta product is evaluated from its form (L, factors), L the leading
exponent exact.order_numerator at 1/0 over 12N: ``_value`` takes q^L
once and multiplies in each factor's unit part from running powers of q
(``_times_unit``, the one truncated-product loop).  Every law
lhs(gamma tau) = factor * rhs(tau) goes through ``_residual``; the
check functions only build laws.  E_g's factor is eta_multiplier's int t
mod 24N, taken as e^(2*pi*i*e/o) with e/o = t/(24N) in lowest terms.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import ceil, gcd, pi

from .exact import PrimeContext, order_numerator
from .eta import EtaProduct, orbit_product, reduce_index, triplet_product
from .qseries import PrecisionError, QSeries
from .subgroups import (
    SL2Matrix,
    Subgroup,
    eta_multiplier,
    is_member,
    sign_character,
    twisted_sign,
)

# target e^-45 ~ 3e-20 for the first dropped factor
_LOG_TAIL_TARGET = 45.0

DEFAULT_SAMPLES = (
    complex(0.0, 1.0),
    complex(0.25, 1.0),
    complex(-1.0 / 3.0, 2.0),
    complex(0.1, 0.8),
)


def balanced_samples(gamma) -> tuple:
    """Two sample points where tau and gamma tau both have height about 1/|c|.

    Near tau = -d/c + i/|c| the Moebius map preserves the height scale, so
    the truncated products on both sides stay short and the q-power phases
    stay far from the double-precision roll-off that fixed unit-height
    samples hit once |c tau + d| grows.  The points sit 0.3/|c| to either
    side of -d/c.  Translations keep the first two defaults.
    """
    if gamma.c == 0:
        return DEFAULT_SAMPLES[:2]
    c = abs(gamma.c)
    center = -gamma.d / gamma.c
    step = 0.3 / c
    return tuple(complex(center + step * s, 1.0 / c) for s in (-1, 1))


def _as_point(tau) -> complex:
    z = complex(tau)
    if not z.imag > 0:
        raise ValueError(f"evaluation point {z} is not in the upper half plane")
    return z


def _terms_for(im: float, level: int) -> int:
    return max(4, ceil(_LOG_TAIL_TARGET / (2 * pi * im * level)) + 2)


def _at_point(tau, level: int) -> tuple:
    """What every E_g of the level shares at tau: 2*pi*i*tau, q, q^level, term count."""
    z = _as_point(tau)
    s = 2j * pi * z
    q = cmath.exp(s)
    return s, q, q ** level, _terms_for(z.imag, level)


def _form(exponents: dict, level: int) -> tuple:
    """(L, factors) of prod E_g^e: L = order_numerator at 1/0 over 12N, factors the (g, e)."""
    return order_numerator(exponents, level, 1, 0) / (12 * level), tuple(exponents.items())


@lru_cache(maxsize=128)
def _eta_form(g: int, level: int) -> tuple:
    """The form of E_g, 1 <= g <= level - 1, cached: laws at one level reuse a few indices."""
    if not 1 <= g <= level - 1:
        raise ValueError(f"index {g} outside [1, {level - 1}]")
    return _form({g: 1}, level)


def _times_unit(value: complex, g: int, level: int, point: tuple) -> complex:
    """value times the truncated unit part of E_g at a point prepared by _at_point.

    The factors 1 - q^(N(m-1)+g) and 1 - q^(Nm-g) come from two running
    powers that start at q^g and q^(N-g) and advance by q^N.
    """
    _, q, step, terms = point
    lo, hi = q ** g, q ** (level - g)
    for _ in range(terms):
        value *= (1 - lo) * (1 - hi)
        lo *= step
        hi *= step
    return value


def _value(form: tuple, level: int, point: tuple, shift: float = 0.0) -> complex:
    """Truncated-product value of an eta product from its form, times e^-shift.

    The shift comes off the exponent of q^L, so a value beyond the double
    range is still compared at a common scale.  A factor with exponent
    e != 1 (negative too) enters as its unit part to the power e.
    """
    lead, factors = form
    value = cmath.exp(point[0] * lead - shift)
    for g, e in factors:
        if e == 1:
            value = _times_unit(value, g, level, point)
        else:
            value *= _times_unit(1, g, level, point) ** e
    return value


def eval_generalized_eta(g: int, level: int, tau) -> complex:
    """Truncated-product value of E_g at tau; three complex powers whatever the level."""
    return _value(_eta_form(g, level), level, _at_point(tau, level))


def eval_classical_eta(scale: int, tau) -> complex:
    """Truncated-product value of eta(scale*tau)."""
    if scale < 1:
        raise ValueError("scale must be positive")
    z = _as_point(tau)
    terms = _terms_for(z.imag, scale)
    q = cmath.exp(2j * pi * z)
    m = range(1, terms + 1)
    return cmath.exp(2j * pi * z * scale / 24) * math.prod(1 - q ** (scale * n) for n in m)


def eval_product(prod: EtaProduct, tau) -> complex:
    """Value of an eta product: its leading power once, then each factor's unit part."""
    form = _form(prod.exponents, prod.level)
    return prod.sign * _value(form, prod.level, _at_point(tau, prod.level))


def eval_series(series: QSeries, tau) -> complex:
    """Value of an exact expansion; loud when the tail could matter.

    Requires |q|^trunc < 1e-15 at the point, i.e. the dropped tail is
    below double-precision noise relative to scale 1.
    """
    z = _as_point(tau)
    absq = abs(cmath.exp(2j * pi * z))
    if absq ** float(series.trunc) >= 1e-15:
        raise PrecisionError(
            f"series truncated at O(q^{series.trunc}) is too short at im={z.imag}"
        )
    terms = sorted(series.coeffs.items())
    return sum((complex(c) * cmath.exp(2j * pi * z * (n / series.denom)) for n, c in terms), 0j)


def _relative_error(left: complex, right: complex) -> float:
    return abs(left - right) / max(abs(left), abs(right), 1e-300)


def _residual(laws, level: int, gamma: SL2Matrix, samples) -> float:
    """Max relative error of lhs(gamma tau) against factor * rhs(tau) over the laws.

    A law is (lhs, factor, rhs), two forms at the level.  tau and gamma
    tau are prepared once per sample, and both sides divided by |q^L| of
    the left side at gamma tau: at height 1 and large level q^L leaves
    the double range (E_1 is 0j from level 1433, F_1 overflows at 1453).
    """
    worst = 0.0
    for tau in samples:
        z = _as_point(tau)
        here, there = _at_point(z, level), _at_point(gamma.apply(z), level)
        for lhs, factor, rhs in laws:
            shift = (there[0] * lhs[0]).real
            left = _value(lhs, level, there, shift)
            right = factor * _value(rhs, level, here, shift)
            worst = max(worst, _relative_error(left, right))
    return worst


def check_invariance(prod: EtaProduct, gamma: SL2Matrix, factor=1,
                     samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of prod(gamma tau) = factor * prod(tau)."""
    form = _form(prod.exponents, prod.level)  # the sign is on both sides
    return _residual([(form, factor, form)], prod.level, gamma, samples)


def check_E_transforms(indices, level: int, gamma: SL2Matrix, samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of E_g(gamma tau) = mult * E_(a g)(tau) over g in indices.

    Each index's multiplier and reduced target are taken once, straight
    into a law of cached E_g forms; gamma tau, q, q^level and the term
    count are prepared once per sample by ``_residual``.
    """
    laws = []
    for g in indices:
        lhs = _eta_form(g, level)
        t, new_index = eta_multiplier(g, level, gamma)
        r, sign = reduce_index(new_index, level)
        n = gcd(t, 24 * level)
        mult = cmath.exp(2j * pi * (t // n) / (24 * level // n))
        laws.append((lhs, mult * sign, _eta_form(r, level)))
    return _residual(laws, level, gamma, samples)


def check_E_transform(g: int, level: int, gamma: SL2Matrix, samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of E_g(gamma tau) = mult * E_(a g)(tau)."""
    return check_E_transforms((g,), level, gamma, samples)


def check_F_transform(ctx: PrimeContext, h: int, gamma: SL2Matrix, samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of the F_h transformation law under gamma.

    On Gamma0(p) the law is F_h(gamma tau) = psi(gamma) * F_(a h)(tau);
    when gamma also lies in Gamma2(p) the index does not move and the
    factor is psi*chi (p == 1 mod 4) or psi (p == 3 mod 4), which is
    checked as well.
    """
    if ctx.ell == 1:
        raise ValueError(
            f"p={ctx.p} has gcd(p-1,12)=2: no F-branch, use check_G_transform"
        )
    if not is_member(gamma, Subgroup.GAMMA0, ctx):
        raise ValueError(f"{tuple(gamma)} is not in Gamma0({ctx.p})")
    here, moved = orbit_product(h, ctx), orbit_product(gamma.a * h, ctx)
    form = _form(here.exponents, ctx.p)
    laws = [(form, sign_character(gamma) * here.sign * moved.sign, _form(moved.exponents, ctx.p))]
    if is_member(gamma, Subgroup.GAMMA2, ctx):
        laws.append((form, twisted_sign(gamma, ctx), form))
    return _residual(laws, ctx.p, gamma, samples)


def check_G_transform(p: int, triplet: tuple[int, int, int], gamma: SL2Matrix,
                      samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of G(gamma tau) = psi(gamma) G(tau), gamma in Gamma1(p)."""
    if gamma.c % p or gamma.a % p != 1:
        raise ValueError(f"{tuple(gamma)} is not in Gamma1({p})")
    return check_invariance(
        triplet_product(triplet, p), gamma, sign_character(gamma), samples
    )
