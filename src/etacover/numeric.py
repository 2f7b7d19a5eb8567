"""Floating-point evaluation of the eta functions and transformation checks.

Truncated products converge like |q|^(level*terms), so the number of
factors is chosen adaptively from Im(tau): transformed points gamma*tau
sit much lower in the upper half plane than the samples and need more
terms, not a different algorithm.

Every law is checked by one routine, ``_max_residual``: it evaluates the
left side at gamma*tau once per sample and takes the largest relative
error against each right side at tau.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from math import ceil, pi

from .exact import PrimeContext
from .eta import EtaProduct, orbit_product, reduce_index, triplet_product
from .qseries import PrecisionError, QSeries
from .subgroups import (
    SL2Matrix,
    Subgroup,
    eta_multiplier,
    is_member,
    quadratic_character,
    sign_character,
)

# target e^-45 ~ 3e-20 for the first dropped factor
_LOG_TAIL_TARGET = 45.0


@dataclass(frozen=True)
class UpperHalfPoint:
    """A sample point re + im*i, im > 0."""

    re: float
    im: float

    def __post_init__(self):
        if not self.im > 0:
            raise ValueError(f"point must lie in the upper half plane, im={self.im}")

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


DEFAULT_SAMPLES = (
    UpperHalfPoint(0.0, 1.0),
    UpperHalfPoint(0.25, 1.0),
    UpperHalfPoint(-1.0 / 3.0, 2.0),
    UpperHalfPoint(0.1, 0.8),
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
    return tuple(UpperHalfPoint(center + step * s, 1.0 / c) for s in (-1, 1))


def _as_point(tau) -> complex:
    z = tau.as_complex() if isinstance(tau, UpperHalfPoint) else complex(tau)
    if not z.imag > 0:
        raise ValueError(f"evaluation point {z} is not in the upper half plane")
    return z


def _terms_for(im: float, level: int) -> int:
    return max(4, ceil(_LOG_TAIL_TARGET / (2 * pi * im * level)) + 2)


def eval_generalized_eta(g: int, level: int, tau) -> complex:
    """Truncated-product value of E_g at tau."""
    if not 1 <= g <= level - 1:
        raise ValueError(f"index {g} outside [1, {level - 1}]")
    z = _as_point(tau)
    terms = _terms_for(z.imag, level)
    q = cmath.exp(2j * pi * z)
    m = range(1, terms + 1)
    head = cmath.exp(2j * pi * z * (level * ((g / level) ** 2 - g / level + 1 / 6) / 2))
    value = head * math.prod(1 - q ** (level * (n - 1) + g) for n in m)
    return value * math.prod(1 - q ** (level * n - g) for n in m)


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
    """Value of an eta product from its factors."""
    z = _as_point(tau)
    val = complex(prod.sign)
    for g, e in sorted(prod.exponents.items()):
        val *= eval_generalized_eta(g, prod.level, z) ** e
    return val


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


def _max_residual(samples, gamma: SL2Matrix, lhs, *rhs) -> float:
    """Max relative error of lhs(gamma tau) against each factor * f(tau).

    lhs and every f map a point to a value; each right side is a
    (factor, f) pair.  The left side is evaluated once per sample.
    """
    worst = 0.0
    for tau in samples:
        z = _as_point(tau)
        left = lhs(gamma.apply(z))
        for factor, f in rhs:
            right = factor * f(z)
            worst = max(worst, abs(left - right) / max(abs(left), abs(right), 1e-300))
    return worst


def check_invariance(prod: EtaProduct, gamma: SL2Matrix, factor=1,
                     samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of prod(gamma tau) = factor * prod(tau)."""
    value = partial(eval_product, prod)
    return _max_residual(samples, gamma, value, (factor, value))


def check_E_transform(g: int, level: int, gamma: SL2Matrix, samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of E_g(gamma tau) = mult * E_(a g)(tau)."""
    mult, new_index = eta_multiplier(g, level, gamma)
    idx = reduce_index(new_index, level)
    return _max_residual(
        samples, gamma, partial(eval_generalized_eta, g, level),
        (mult.value() * idx.sign, partial(eval_generalized_eta, idx.g, level)),
    )


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
        raise ValueError(f"{gamma.entries()} is not in Gamma0({ctx.p})")
    psi = sign_character(gamma)
    here = orbit_product(h, ctx)
    moved = orbit_product(gamma.a * h, ctx)
    rhs = [(psi, partial(eval_product, moved))]
    if is_member(gamma, Subgroup.GAMMA2, ctx):
        fixed_factor = psi * (quadratic_character(gamma, ctx) if ctx.ell % 2 == 0 else 1)
        rhs.append((fixed_factor, partial(eval_product, here)))
    return _max_residual(samples, gamma, partial(eval_product, here), *rhs)


def check_G_transform(p: int, triplet: tuple[int, int, int], gamma: SL2Matrix,
                      samples=DEFAULT_SAMPLES) -> float:
    """Max relative residual of G(gamma tau) = psi(gamma) G(tau), gamma in Gamma1(p)."""
    if gamma.c % p or gamma.a % p != 1:
        raise ValueError(f"{gamma.entries()} is not in Gamma1({p})")
    return check_invariance(
        triplet_product(triplet, p), gamma, sign_character(gamma), samples
    )
