"""Generalized Dedekind eta expansions and the eta products built from them.

The building block at level N is, with q = e^(2*pi*i*tau),

    E_g(tau) = q^(N*B(g/N)/2) * prod_{m>=1} (1 - q^(N(m-1)+g)) (1 - q^(Nm-g))

for integers g not divisible by N, B(x) = x^2 - x + 1/6.  Index shifts obey
E_{g+N} = E_{-g} = -E_g, and inside [1, N-1] the two factor families swap
under g -> N-g, so E_{N-g} = E_g with no sign.  Reduction therefore lands
in [1, floor(N/2)] picking up one sign per level-shift and none from the
reflection.

Expansions never multiply the factors out one at a time.  By the Jacobi
triple product the unit part of E_g is a sparse theta series times the
partition series at q^N (Yang 2004, "Transformation formulas for
generalized Dedekind eta functions"), and eta itself is the pentagonal
series; both come from one theta sweep (eta(s*tau) is theta at level 3s),
with integer coefficients.  EtaProduct.from_factors is the one place
where eta products are built, index reduction and exponent merging included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import PrimeContext, RootOfUnity, bernoulli2
from .qseries import QSeries
from .subgroups import SL2Matrix, eta_multiplier


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
    """Partition numbers p(0..n): with prod (1 - q^m) = sum_e c_e q^e, theta
    at level 3 and g = 1 (Euler), p(j) = -sum_{0<e<=j} c_e p(j-e)."""
    pentagonal = sorted(_theta(3, 1, n + 1).items())[1:]  # c_0 = 1 leads
    p = [1] + [0] * n
    for j in range(1, n + 1):
        p[j] = -sum(c * p[j - e] for e, c in pentagonal if e <= j)
    return p


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
    denom = 24 * level
    series = QSeries(denom, {e * denom: c for e, c in unit.items()}, prec)
    return series.shift(leading_exponent(g, level))


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


def order_numerator(exponents: dict, level: int, a: int, c: int) -> int:
    """12*level times the leading q-exponent of prod E_g^e(g) at the cusp a/c.

    Composed with a matrix of first column (a, c), E_g leads with exponent
    d^2/(2*level) * P2(a*g/d), d = gcd(c, level), P2 the periodic second
    Bernoulli function.  With x = a*g mod d that is
    (6x^2 - 6dx + d^2)/(12*level), so the sum is an integer; the cusp
    1/0 (infinity) recovers the leading exponents level*B(g/level)/2.
    """
    d = gcd(c, level)
    total = 0
    for g, e in exponents.items():
        x = a * g % d
        total += e * (6 * x * x - 6 * d * x + d * d)
    return total


def transform_product(prod: EtaProduct, gamma: SL2Matrix) -> tuple[RootOfUnity, EtaProduct]:
    """(root, moved) with prod(gamma tau) = root * moved(tau), gamma in Gamma0.

    E_g^e contributes eta_multiplier^e and moves to E_(a*g)^e (a is a unit,
    so no indices merge).
    """
    root, moved = RootOfUnity.one(), []
    for g, e in prod.exponents.items():
        mult, new_index = eta_multiplier(g, prod.level, gamma)
        root *= mult ** e
        moved.append((new_index, e))
    label = f"{prod.label} o {gamma.entries()}"
    return root, EtaProduct.from_factors(prod.level, moved, label, prod.sign)


def orbit_product(h: int, ctx: PrimeContext) -> EtaProduct:
    """The weight-0 unit F_h = (prod_{j<ell} E_{g^(jk) h})^(6/ell).

    Indices run over the integer powers g^(jk) (mod 2p) times h, so their
    reduction signs are those of the literal products.  Changing h by a
    multiple of p never changes the result, so h is normalized mod p.
    """
    p = ctx.p
    if h % p == 0:
        raise ValueError(f"index {h} vanishes mod {p}")
    h = h % p
    e = 6 // ctx.ell
    factors = [(pow(ctx.g, j * ctx.k, 2 * p) * h, e) for j in range(ctx.ell)]
    return EtaProduct.from_factors(p, factors, f"F_{h}")


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
