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
q^L * prod theta_g^e * P(q^N)^(sum e).  eta is the pentagonal series and P
its inverse; every theta, eta(s*tau) at level 3s included, comes from one
integer sweep.  EtaProduct.from_factors is the one place where eta products
are built, index reduction and exponent merging included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import PrimeContext, RootOfUnity, order_numerator
from .qseries import QSeries
from .subgroups import SL2Matrix, multiplier_turns


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


def _partitions(n: int) -> list[int]:
    """Partition numbers p(0..n): the inverse of the pentagonal series (Euler)."""
    inverse = QSeries(1, _theta(3, 1, n + 1), n + 1).inverse()
    return [inverse.coeffs[j] for j in range(n + 1)]


def generalized_eta(g: int, level: int, prec: int) -> QSeries:
    """Exact expansion of E_g to prec q-powers past the leading exponent.

    Requires 1 <= g <= level-1; reduce first for anything else.  The
    lattice denominator is fixed at 24*level so that every exponent in
    sight (leading terms, multiplier phases) fits without rescaling.

    By the Jacobi triple product the unit part
    prod_m (1 - q^(N(m-1)+g)) (1 - q^(Nm-g)) equals theta_g(q) * P(q^N),
    with theta_g = sum_{n in Z} (-1)^n q^(N*n(n-1)/2 + g*n) and P the
    partition series; the expansion is that one sparse-by-short product.
    """
    if not 1 <= g <= level - 1:
        raise ValueError(f"index {g} outside [1, {level - 1}]")
    if prec < 1:
        raise ValueError("prec must be a positive number of q-steps")
    parts = _partitions((prec - 1) // level)
    unit = {}
    for e, c in _theta(level, g, prec).items():
        for j in range((prec - 1 - e) // level + 1):
            unit[e + level * j] = unit.get(e + level * j, 0) + c * parts[j]
    series = QSeries(1, unit, prec).rescale(24 * level)
    return series.shift(Fraction(order_numerator({g: 1}, level, 1, 0), 12 * level))


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

    @classmethod
    def from_factors(cls, level: int, factors, label: str, sign: int = 1) -> "EtaProduct":
        """sign * prod E_g^e over the (g, e) in factors, g not divisible by level.

        Each g is reduced; its sign from E_(g+N) = -E_g counts once per odd
        exponent, and the exponents of equal reduced indices add up.
        """
        exponents: dict[int, int] = {}
        for g, e in factors:
            idx = reduce_index(g, level)
            sign *= idx.sign ** (e % 2)
            exponents[idx.g] = exponents.get(idx.g, 0) + e
        return cls(level, exponents, sign, label)

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


def transform_product(prod: EtaProduct, gamma: SL2Matrix) -> tuple[RootOfUnity, EtaProduct]:
    """(root, moved) with prod(gamma tau) = root * moved(tau), gamma in Gamma0.

    E_g^e contributes e times the multiplier exponent t of multiplier_turns
    and moves to E_(a*g)^e (a is a unit, so no indices merge); the
    exponents add up in one integer mod 24*level, made a root once.
    """
    turns, moved = 0, []
    for g, e in prod.exponents.items():
        t, new_index = multiplier_turns(g, prod.level, gamma)
        turns += e * t
        moved.append((new_index, e))
    label = f"{prod.label} o {gamma.entries()}"
    moved_prod = EtaProduct.from_factors(prod.level, moved, label, prod.sign)
    return RootOfUnity(24 * prod.level, turns), moved_prod


def orbit_factors(h: int, ctx: PrimeContext) -> list:
    """(g^(jk) mod 2p times h, 6/ell) for j < ell: the factors of F_h, unreduced,
    so their reduction signs are those of the literal products."""
    e = 6 // ctx.ell
    return [(pow(ctx.g, j * ctx.k, 2 * ctx.p) * h, e) for j in range(ctx.ell)]


def orbit_product(h: int, ctx: PrimeContext) -> EtaProduct:
    """The weight-0 unit F_h = (prod_{j<ell} E_{g^(jk) h})^(6/ell), h normalized mod p,
    since changing h by a multiple of p never changes the result."""
    if h % ctx.p == 0:
        raise ValueError(f"index {h} vanishes mod {ctx.p}")
    h = h % ctx.p
    return EtaProduct.from_factors(ctx.p, orbit_factors(h, ctx), f"F_{h}")


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
    label = "G_(%d,%d,%d)" % tuple(triplet)
    return EtaProduct.from_factors(p, [(h, 2) for h in triplet], label)


def expand_product(prod: EtaProduct, prec: int) -> QSeries:
    """Exact expansion to prec q-steps past the leading term, as sign * q^L *
    prod theta_g^e * P(q^N)^(sum e) with L = order_numerator at 1/0 over 12N."""
    if not prod.exponents or prec < 1:
        raise ValueError(f"cannot expand {len(prod.exponents)} factors to {prec} q-steps")
    level = prod.level
    parts = _partitions((prec - 1) // level)
    series = QSeries(1, {level * j: c for j, c in enumerate(parts)}, prec)
    series = series ** sum(prod.exponents.values())
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
