"""Generalized Dedekind eta expansions and the eta products built from them.

The building block at level N is, with q = e^(2*pi*i*tau),

    E_g(tau) = q^(N*B(g/N)/2) * prod_{m>=1} (1 - q^(N(m-1)+g)) (1 - q^(Nm-g))

for integers g not divisible by N, B(x) = x^2 - x + 1/6.  Index shifts obey
E_{g+N} = E_{-g} = -E_g, and inside [1, N-1] the two factor families swap
under g -> N-g, so E_{N-g} = E_g with no sign.  Reduction therefore lands
in [1, floor(N/2)] picking up one sign per level-shift and none from the
reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import PrimeContext, bernoulli2, periodic_bernoulli2
from .qseries import QSeries
from .subgroups import SL2Matrix


@dataclass(frozen=True)
class EtaIndex:
    """Canonical index: g in [1, floor(level/2)] and the sign picked up."""

    level: int
    g: int
    sign: int


def reduce_index(g: int, level: int) -> EtaIndex:
    """Reduce an arbitrary index, tracking E_{g+N} = -E_g and E_{N-g} = E_g."""
    if level < 2:
        raise ValueError(f"level must be >= 2, got {level}")
    if g % level == 0:
        raise ValueError(f"index {g} vanishes mod {level}")
    r = g % level
    shifts = (g - r) // level
    sign = -1 if shifts % 2 else 1
    if 2 * r > level:
        r = level - r
    return EtaIndex(level=level, g=r, sign=sign)


def leading_exponent(g: int, level: int) -> Fraction:
    """q-exponent N*B(g/N)/2 of the leading term of E_g."""
    return Fraction(level, 2) * bernoulli2(Fraction(g, level))


def generalized_eta(g: int, level: int, prec: int) -> QSeries:
    """Exact expansion of E_g to prec q-powers past the leading exponent.

    Requires 1 <= g <= level-1; reduce first for anything else.  The
    lattice denominator is fixed at 24*level so that every exponent in
    sight (leading terms, multiplier phases) fits without rescaling.
    """
    if not 1 <= g <= level - 1:
        raise ValueError(f"index {g} outside [1, {level - 1}]")
    if prec < 1:
        raise ValueError("prec must be a positive number of q-steps")
    denom = 24 * level
    unit = QSeries.one(denom, prec)
    for start in (g, level - g):
        e = start
        while e < prec:
            unit = unit * QSeries(denom, {0: 1, e * denom: -1}, prec)
            e += level
    return unit.shift(leading_exponent(g, level))


def classical_eta(scale: int, prec: int) -> QSeries:
    """Expansion of eta(scale*tau) = q^(scale/24) prod (1 - q^(scale*m))."""
    if scale < 1:
        raise ValueError("scale must be positive")
    if prec < 1:
        raise ValueError("prec must be a positive number of q-steps")
    unit = QSeries.one(24, prec)
    e = scale
    while e < prec:
        unit = unit * QSeries(24, {0: 1, e * 24: -1}, prec)
        e += scale
    return unit.shift(Fraction(scale, 24))


@dataclass(frozen=True)
class EtaProduct:
    """Formal product sign * prod E_g^e(g) at one level, indices reduced."""

    level: int
    exponents: dict  # reduced index -> nonzero integer exponent
    sign: int
    label: str

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, not {self.sign}")
        for g, e in self.exponents.items():
            if not 1 <= g <= self.level // 2:
                raise ValueError(f"index {g} is not reduced for level {self.level}")
            if e == 0:
                raise ValueError(f"index {g} has exponent 0")

    def squared(self) -> "EtaProduct":
        return EtaProduct(
            level=self.level,
            exponents={g: 2 * e for g, e in self.exponents.items()},
            sign=1,
            label=f"({self.label})^2",
        )

    def weight_sums(self) -> tuple[int, int, int]:
        """(sum e, sum g*e, sum g^2*e) over the reduced exponent map."""
        s0 = sum(self.exponents.values())
        s1 = sum(g * e for g, e in self.exponents.items())
        s2 = sum(g * g * e for g, e in self.exponents.items())
        return s0, s1, s2


def is_modular_unit(prod: EtaProduct) -> bool:
    """Congruence test for descending to a function on Gamma1(level).

    General conditions: sum e == 0 mod 12, sum g*e == 0 mod 2 and
    sum g^2*e == 0 mod 2*level; for odd level the middle one is implied
    and the last relaxes to mod level.
    """
    s0, s1, s2 = prod.weight_sums()
    if prod.level % 2:
        return s0 % 12 == 0 and s2 % prod.level == 0
    return s0 % 12 == 0 and s1 % 2 == 0 and s2 % (2 * prod.level) == 0


def leading_exponent_at(g: int, level: int, gamma: SL2Matrix) -> Fraction:
    """Leading q-exponent of E_g composed with gamma in SL(2,Z).

    With d = gcd(c, level) the value is d^2/(2*level) * P2(a*g/d), P2 the
    periodic second Bernoulli function; gamma = identity recovers the
    leading exponent at infinity.
    """
    d = gcd(gamma.c, level)
    return Fraction(d * d, 2 * level) * periodic_bernoulli2(Fraction(gamma.a * g, d))


def _shifted_residue(x: int, p: int) -> tuple[int, int]:
    """(residue in [1,p-1], sign) with E_x = sign * E_residue, from x mod 2p."""
    y = x % (2 * p)
    r = y % p
    if r == 0:
        raise ValueError(f"index {x} vanishes mod {p}")
    return r, (-1 if y >= p else 1)


def orbit_product(h: int, ctx: PrimeContext) -> EtaProduct:
    """The weight-0 unit F_h = (prod_{j<ell} E_{g^(jk) h})^(6/ell).

    Indices run over the literal integer powers g^(jk) times h; shifting
    them into [1, p-1] contributes one sign per multiple of p, which the
    6/ell-th power turns into a single global sign.  Changing h by a
    multiple of p never changes the result, so h is normalized mod p.
    """
    p = ctx.p
    if h % p == 0:
        raise ValueError(f"index {h} vanishes mod {p}")
    h = h % p
    sign = 1
    exponents: dict[int, int] = {}
    e = 6 // ctx.ell
    for j in range(ctx.ell):
        x = pow(ctx.g, j * ctx.k, 2 * p) * h
        r, s = _shifted_residue(x, p)
        sign *= s
        idx = reduce_index(r, p)
        if idx.sign != 1:
            raise ArithmeticError(f"reducing index {r} mod {p} gave sign {idx.sign}")
        exponents[idx.g] = exponents.get(idx.g, 0) + e
    return EtaProduct(
        level=p,
        exponents=exponents,
        sign=sign if e % 2 else 1,
        label=f"F_{h}",
    )


def find_triplet(p: int) -> tuple[int, int, int]:
    """Lexicographically least 1 <= h1 <= h2 <= h3 <= (p-1)/2 with
    h1^2 + h2^2 + h3^2 == 0 mod p; exists whenever p == 11 mod 12."""
    if p % 12 != 11:
        raise ValueError(f"triplet construction applies to p == 11 mod 12, not {p}")
    half = (p - 1) // 2
    for h1 in range(1, half + 1):
        for h2 in range(h1, half + 1):
            s = h1 * h1 + h2 * h2
            for h3 in range(h2, half + 1):
                if (s + h3 * h3) % p == 0:
                    return (h1, h2, h3)
    raise ArithmeticError(f"no sum-of-three-squares triplet mod {p}")


def triplet_product(triplet: tuple[int, int, int], p: int) -> EtaProduct:
    """The unit G = (E_h1 E_h2 E_h3)^2; squaring cancels reduction signs."""
    exponents: dict[int, int] = {}
    for h in triplet:
        idx = reduce_index(h, p)
        exponents[idx.g] = exponents.get(idx.g, 0) + 2
    return EtaProduct(
        level=p,
        exponents=exponents,
        sign=1,
        label="G_(%d,%d,%d)" % tuple(triplet),
    )


def expand_product(prod: EtaProduct, prec: int) -> QSeries:
    """Exact expansion of an eta product to prec q-steps past its leading term.

    Relative precision survives multiplication and integer powers, so each
    factor is expanded to the same number of steps.
    """
    series = None
    for g, e in sorted(prod.exponents.items()):
        factor = generalized_eta(g, prod.level, prec) ** e
        series = factor if series is None else series * factor
    if series is None:
        raise ValueError("empty eta product")
    return series.scale(prod.sign)


def eta_quotient_series(ctx: PrimeContext, prec: int) -> QSeries:
    """Expansion of z = (eta(tau)/eta(p*tau))^(12/gcd(p-1,12)).

    The exponent 12/gcd(p-1,12) equals 6/ell, so the leading q-exponent
    is (6/ell)*(1-p)/24 = (1-p)/(4*ell).
    """
    e = 6 // ctx.ell
    num = classical_eta(1, prec) ** e
    den = classical_eta(ctx.p, prec) ** e
    return num * den.inverse()
