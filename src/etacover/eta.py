"""Generalized Dedekind eta expansions and the eta products built from them.

The building block at level N is, with q = e^(2*pi*i*tau),

    E_g(tau) = q^(N*B(g/N)/2) * prod_{m>=1} (1 - q^(N(m-1)+g)) (1 - q^(Nm-g))

for integers g not divisible by N, B(x) = x^2 - x + 1/6; the leading
exponent is exact.order_numerator at the cusp 1/0 over 12N.  Index shifts
obey E_{g+N} = E_{-g} = -E_g, and inside [1, N-1] the two factor families
swap under g -> N-g, so E_{N-g} = E_g with no sign.  Reduction therefore
lands in [1, floor(N/2)] picking up one sign per level-shift and none from
the reflection.

Expansions never multiply the factors out one at a time.  By the Jacobi
triple product the unit part of E_g is a sparse theta series theta_g times
P(q^N), P the partition series (Yang 2004, "Transformation formulas for
generalized Dedekind eta functions"), so prod E_g^e expands as
q^L * prod theta_g^e * P(q^N)^(sum e), E_g alone (generalized_eta) included.
eta is the pentagonal series and P its inverse, so P(q^N)^(sum e) is the
pentagonal series in q^N to the power -sum e; one integer sweep gives every
theta, eta(s*tau) at level 3s included.  merge_factors reduces and merges
indices into an (exponents, sign) pair of ints, which the one constructor
EtaProduct.from_factors wraps; F_h takes its indices from subgroups.h_residues.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import PrimeContext, order_numerator
from .qseries import QSeries
from .subgroups import h_residues


def reduce_index(g: int, level: int) -> tuple[int, int]:
    """(r, sign) with E_g = sign * E_r, 1 <= r <= level/2, by E_{g+N} = -E_g, E_{N-g} = E_g."""
    if level < 2:
        raise ValueError(f"level must be >= 2, got {level}")
    if g % level == 0:
        raise ValueError(f"index {g} vanishes mod {level}")
    r = g % level
    shifts = (g - r) // level
    sign = -1 if shifts % 2 else 1
    if 2 * r > level:
        r = level - r
    return r, sign


def _theta(level: int, g: int, prec: int) -> dict:
    """Terms below q^prec of sum_{n in Z} (-1)^n q^(level*n(n-1)/2 + g*n).

    For 0 < g < level the exponents grow with |n| on either side of 0; for
    g = level/2, n and -n share a term, whose coefficient is 2*(-1)^n.
    """
    theta = {}
    for n, step in ((0, 1), (-1, -1)):
        while (e := level * n * (n - 1) // 2 + g * n) < prec:
            theta[e] = theta.get(e, 0) + (-1 if n % 2 else 1)
            n += step
    return theta


def generalized_eta(g: int, level: int, prec: int) -> QSeries:
    """Exact expansion of E_g to prec q-powers past the leading exponent.

    Requires 1 <= g <= level-1; reduce first for anything else.  The
    lattice denominator is fixed at 24*level so that every exponent in
    sight (leading terms, multiplier phases) fits without rescaling.

    It is the one-factor expand_product: by the Jacobi triple product the
    unit part prod_m (1 - q^(N(m-1)+g)) (1 - q^(Nm-g)) is theta_g(q) * P(q^N).
    """
    if not 1 <= g <= level - 1:
        raise ValueError(f"index {g} outside [1, {level - 1}]")
    if prec < 1:
        raise ValueError("prec must be a positive number of q-steps")
    return expand_product(EtaProduct.from_factors(level, [(g, 1)], f"E_{g}"), prec)


def classical_eta(scale: int, prec: int) -> QSeries:
    """Expansion of eta(scale*tau) = q^(scale/24) prod (1 - q^(scale*m)).

    The product is the pentagonal series (Euler), theta at level 3s and
    g = s since 3s*n(n-1)/2 + s*n = s*n(3n-1)/2; its exponents are
    distinct, so the expansion is written down without a multiply.
    """
    if scale < 1:
        raise ValueError("scale must be positive")
    if prec < 1:
        raise ValueError("prec must be a positive number of q-steps")
    unit = {24 * e: c for e, c in _theta(3 * scale, scale, prec).items()}
    return QSeries(24, unit, prec).shift(Fraction(scale, 24))


def merge_factors(level: int, factors, sign: int = 1) -> tuple[dict, int]:
    """(exponents, sign) of sign * prod E_g^e over the (g, e) in factors, g not divisible
    by level: each g is reduced, its sign counted once per odd exponent."""
    exponents: dict[int, int] = {}
    for g, e in factors:
        r, s = reduce_index(g, level)
        sign *= s ** (e % 2)
        exponents[r] = exponents.get(r, 0) + e
    return exponents, sign


class _Fields(NamedTuple):
    level: int
    exponents: dict  # reduced index -> nonzero integer exponent
    sign: int
    label: str


class EtaProduct(_Fields):
    """Formal sign * prod E_g^e(g) at one level, indices reduced: an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, level: int, exponents: dict, sign: int, label: str) -> "EtaProduct":
        if sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, not {sign}")
        for g, e in exponents.items():
            if not 1 <= g <= level // 2:
                raise ValueError(f"index {g} is not reduced for level {level}")
            if e == 0:
                raise ValueError(f"index {g} has exponent 0")
        return super().__new__(cls, level, exponents, sign, label)

    @classmethod
    def _make(cls, iterable) -> "EtaProduct":  # through __new__: _replace checks the product too
        return cls(*iterable)

    @classmethod
    def from_factors(cls, level: int, factors, label: str) -> "EtaProduct":
        """prod E_g^e over the (g, e) in factors, merged by merge_factors."""
        return cls(level, *merge_factors(level, factors), label)

    def squared(self) -> "EtaProduct":
        factors = [(g, 2 * e) for g, e in self.exponents.items()]
        return EtaProduct.from_factors(self.level, factors, f"({self.label})^2")


def is_modular_unit(prod: EtaProduct) -> bool:
    """Congruence test for descending to a function on Gamma1(level).

    General conditions: sum e == 0 mod 12, sum g*e == 0 mod 2 and
    sum g^2*e == 0 mod 2*level.  The middle one is implied by the last,
    since g^2 == g mod 2; for odd level the last relaxes to mod level.
    """
    s0 = sum(prod.exponents.values())
    s2 = sum(g * g * e for g, e in prod.exponents.items())
    modulus = prod.level if prod.level % 2 else 2 * prod.level
    return s0 % 12 == 0 and s2 % modulus == 0


def orbit_product(h: int, ctx: PrimeContext) -> EtaProduct:
    """The weight-0 unit F_h = (prod_{j<ell} E_{g^(jk) h})^(6/ell), h normalized mod p.

    Its factors (orbit_factors) are E_x, x the odd lift mod 2p of h*g^(jk) mod p.  The
    literal index (g^(jk) mod 2p)*h is that plus an odd multiple of p exactly when h
    is even, and then the ell factors to the power 6/ell make 6 sign moves.
    """
    return EtaProduct.from_factors(ctx.p, orbit_factors(h, ctx), f"F_{h % ctx.p}")


def orbit_factors(h: int, ctx: PrimeContext) -> list:
    """The factors (x, 6/ell) of F_h, x the odd lift mod 2p of h*g^(jk) mod p, j < ell."""
    lifts = [h * x % ctx.p for x in h_residues(ctx)[:ctx.ell]]
    return [(r if r % 2 else r + ctx.p, 6 // ctx.ell) for r in lifts]


def find_triplet(p: int) -> tuple[int, int, int]:
    """Lexicographically least 1 <= h1 <= h2 <= h3 <= (p-1)/2 with h1^2 + h2^2 + h3^2 == 0
    mod p; exists whenever p == 11 mod 12.  As p == 3 mod 4, t = -(h1^2 + h2^2) is a square
    exactly when y = t^((p+1)/4) has y^2 == t, and h3 is then its one root min(y, p - y)."""
    if p % 12 != 11:
        raise ValueError(f"triplet construction applies to p == 11 mod 12, not {p}")
    half = (p - 1) // 2
    for h1 in range(1, half + 1):
        for h2 in range(h1, half + 1):
            t = -(h1 * h1 + h2 * h2) % p
            y = pow(t, (p + 1) // 4, p)
            if y * y % p == t and (h3 := min(y, p - y)) >= h2:
                return (h1, h2, h3)
    raise ArithmeticError(f"no sum-of-three-squares triplet mod {p}")


def triplet_product(triplet: tuple[int, int, int], p: int) -> EtaProduct:
    """The unit G = (E_h1 E_h2 E_h3)^2; squaring cancels reduction signs."""
    label = "G_(%d,%d,%d)" % tuple(triplet)
    return EtaProduct.from_factors(p, [(h, 2) for h in triplet], label)


def expand_product(prod: EtaProduct, prec: int) -> QSeries:
    """Exact expansion to prec q-steps past the leading term, as sign * q^L * prod theta_g^e
    * P(q^N)^(sum e), L = order_numerator at 1/0 over 12N, P = 1/(pentagonal series)."""
    if not prod.exponents or prec < 1:
        raise ValueError(f"cannot expand {len(prod.exponents)} factors to {prec} q-steps")
    level = prod.level
    pentagonal = QSeries(1, _theta(3 * level, level, prec), prec)
    series = pentagonal ** -sum(prod.exponents.values())
    for g, e in sorted(prod.exponents.items()):
        series = series * QSeries(1, _theta(level, g, prec), prec) ** e
    lead = Fraction(order_numerator(prod.exponents, level, 1, 0), 12 * level)
    return series.scale(prod.sign).rescale(24 * level).shift(lead)


def eta_quotient_series(ctx: PrimeContext, prec: int) -> QSeries:
    """Expansion of z = (eta(tau)/eta(p*tau))^(12/gcd(p-1,12)).

    The exponent 12/gcd(p-1,12) equals 6/ell, so the leading q-exponent
    is (6/ell)*(1-p)/24 = (1-p)/(4*ell).
    """
    e = 6 // ctx.ell
    num = classical_eta(1, prec) ** e
    den = classical_eta(ctx.p, prec) ** e
    return num * den.inverse()
