"""Floating-point evaluation of the eta functions and transformation checks.

Sample points are plain complex numbers, which ``_as_point`` rejects off
the upper half plane.  Truncated products converge like |q|^(level*terms),
so the number of factors is chosen adaptively from Im(tau): transformed
points gamma*tau sit much lower in the upper half plane than the samples
and need more terms, not a different algorithm.

An eta product is evaluated from L, exact.order_numerator at 1/0 over 12N:
q^L once, then each factor's unit part from running powers of q
(``_times_unit``, the one truncated-product loop).  Every law
lhs(gamma tau) = factor * rhs(tau) goes through ``_residual`` as a flat
tuple of leads, unit parts and factor (an E_g side is its index alone);
the check functions only build laws.  E_g's factor is the int t mod 24N of
its multiplier, eps12 read once per draw, taken as e^(2*pi*i*e/o) with
e/o = t/(24N) in lowest terms.  A side past the double range reads inf.
"""

from __future__ import annotations

import cmath
import math
from math import ceil, gcd, inf, pi

from .exact import PrimeContext, lead_numerator, order_numerator
from .eta import EtaProduct, orbit_product, reduce_index, triplet_product
from .qseries import PrecisionError, QSeries
from .subgroups import (
    SL2Matrix,
    Subgroup,
    epsilon_factor,
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


def _lead(g: int, level: int) -> float:
    """L of E_g, 1 <= g <= level - 1, in closed form: order_numerator({g: 1}) at 1/0 over 12N."""
    if not 1 <= g <= level - 1:
        raise ValueError(f"index {g} outside [1, {level - 1}]")
    return lead_numerator(g, level) / (12 * level)


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


def _units(value: complex, factors, level: int, point: tuple) -> complex:
    """value times the unit part of each E_g^e over the (g, e) in factors.

    A factor with exponent 1 is multiplied in term by term; any other
    exponent, negative too, raises its unit part to that power.
    """
    for g, e in factors:
        if e == 1:
            value = _times_unit(value, g, level, point)
        else:
            value *= _times_unit(1, g, level, point) ** e
    return value


def eval_generalized_eta(g: int, level: int, tau) -> complex:
    """Truncated-product value of E_g at tau; three complex powers whatever the level."""
    point = _at_point(tau, level)
    return _times_unit(cmath.exp(point[0] * _lead(g, level)), g, level, point)


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
    lead, factors = _form(prod.exponents, prod.level)
    point = _at_point(tau, prod.level)
    return prod.sign * _units(cmath.exp(point[0] * lead), factors, prod.level, point)


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
    """|left - right| over the larger side (at least 1e-300), or inf where that ratio is nan
    (a side past the double range), so such a law fails instead of folding to 0."""
    a, b = abs(left), abs(right)
    scale = a if a > b else b
    err = abs(left - right) / (scale if scale > 1e-300 else 1e-300)
    return err if err == err else inf


def _residual(laws, level: int, gamma: SL2Matrix, samples) -> float:
    """Max relative error of lhs(gamma tau) against factor * rhs(tau) over the laws.

    A law is the flat (L, lhs, factor, L', rhs): each side q^L times its unit
    part, an index g (E_g, one ``_times_unit``) or a tuple of (g, e) (``_units``).
    tau and gamma tau are prepared once per sample, and both sides divided
    by |q^L| of the left side at gamma tau: at height 1 and large level q^L
    leaves the double range (E_1 is 0j from level 1433, F_1 overflows at 1453).
    """
    worst = 0.0
    for tau in samples:
        z = _as_point(tau)
        here, there = _at_point(z, level), _at_point(gamma.apply(z), level)
        s, t = here[0], there[0]
        for lead, lhs, factor, rlead, rhs in laws:
            shift = (t * lead).real
            left, right = cmath.exp(t * lead - shift), cmath.exp(s * rlead - shift)
            if isinstance(lhs, int):
                left = _times_unit(left, lhs, level, there)
                right = _times_unit(right, rhs, level, here)
            else:
                left, right = _units(left, lhs, level, there), _units(right, rhs, level, here)
            err = _relative_error(left, factor * right)
            if err > worst:
                worst = err
    return worst


def check_invariance(prod: EtaProduct, gamma: SL2Matrix, factor=1,
                     samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of prod(gamma tau) = factor * prod(tau)."""
    lead, factors = _form(prod.exponents, prod.level)  # the sign is on both sides
    return _residual([(lead, factors, factor, lead, factors)], prod.level, gamma, samples)


def check_E_transforms(indices, level: int, gamma: SL2Matrix, samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of E_g(gamma tau) = mult * E_(a g)(tau) over g in indices.

    What the indices share is read once per draw: off the translations eps12,
    so each index's turns are 2N*eps12 + 12b(a g^2 - N g) (multiplier_turns at
    {g: 1}); a translation keeps g and takes eta_multiplier's turns.  Each law
    is the flat (L of g, g, mult * sign, L of r, r), E_(a g) = sign * E_r, for
    ``_residual``.
    """
    a, b, c, d = gamma
    if c % level:
        raise ValueError(f"{tuple(gamma)} is not in Gamma0({level})")
    if c:
        shared = 2 * level * epsilon_factor(a, b * level, c // level, d)
    laws = []
    for g in indices:
        if c:
            t, moved = (shared + 12 * b * (a * g * g - level * g)) % (24 * level), a * g
        else:
            t, moved = eta_multiplier(g, level, gamma)
        r, sign = reduce_index(moved, level)
        n = gcd(t, 24 * level)
        mult = cmath.exp(2j * pi * (t // n) / (24 * level // n))
        laws.append((_lead(g, level), g, mult * sign, _lead(r, level), r))
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
    laws = [(*form, sign_character(gamma) * here.sign * moved.sign, *_form(moved.exponents, ctx.p))]
    if is_member(gamma, Subgroup.GAMMA2, ctx):
        laws.append((*form, twisted_sign(gamma, ctx), *form))
    return _residual(laws, ctx.p, gamma, samples)


def check_G_transform(p: int, triplet: tuple[int, int, int], gamma: SL2Matrix,
                      samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of G(gamma tau) = psi(gamma) G(tau), gamma in Gamma1(p)."""
    if gamma.c % p or gamma.a % p != 1:
        raise ValueError(f"{tuple(gamma)} is not in Gamma1({p})")
    return check_invariance(
        triplet_product(triplet, p), gamma, sign_character(gamma), samples
    )
