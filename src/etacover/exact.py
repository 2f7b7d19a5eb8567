"""Exact rational helpers: Bernoulli values, primitive roots, roots of unity.

Everything in here is plain integer/Fraction arithmetic; no floats.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def bernoulli2(x) -> Fraction:
    """Second Bernoulli polynomial B(x) = x^2 - x + 1/6, exactly."""
    x = Fraction(x)
    return x * x - x + Fraction(1, 6)


def is_prime(n: int) -> bool:
    """Trial division; fine for the desk-scale primes we certify."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    if n < 1:
        raise ValueError(f"{n} has no prime factorization")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def smallest_primitive_root(p: int) -> int:
    """Least generator of (Z/p)^*, found by checking prime-index powers."""
    qs = prime_factors(p - 1)
    for r in range(2, p):
        if all(pow(r, (p - 1) // q, p) != 1 for q in qs):
            return r
    raise ArithmeticError(f"no primitive root mod {p}")


def odd_primitive_root(p: int) -> int:
    """Deterministic odd generator of (Z/p)^*: least root, plus p if even."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime p >= 5, got {p}")
    r = smallest_primitive_root(p)
    return r if r % 2 == 1 else r + p


@dataclass(frozen=True)
class PrimeContext:
    """Fixed data for one prime p >= 5.

    g is the deterministic odd generator of (Z/p)^*,
    k = (p-1)/gcd(p-1,12) and ell = gcd(p-1,12)/2, so p - 1 = 2*k*ell.
    The covering certified for p has degree 2k.
    """

    p: int
    g: int
    k: int
    ell: int

    @property
    def degree(self) -> int:
        return 2 * self.k


def prime_context(p: int) -> PrimeContext:
    """Build the PrimeContext for p; rejects p < 5 and composites."""
    g = odd_primitive_root(p)  # validates p
    d = gcd(p - 1, 12)
    return PrimeContext(p=p, g=g, k=(p - 1) // d, ell=d // 2)


@dataclass(frozen=True)
class RootOfUnity:
    """e^(2*pi*i*exponent/order), stored with the minimal order.

    Construction normalizes: exponent reduced mod order, then the pair
    divided by its gcd, so equality of values is equality of fields.
    """

    order: int
    exponent: int

    def __post_init__(self):
        if self.order <= 0:
            raise ValueError("order must be positive")
        e = self.exponent % self.order
        g = gcd(e, self.order)
        object.__setattr__(self, "order", self.order // g)
        object.__setattr__(self, "exponent", e // g)

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(1, 0)

    @classmethod
    def minus_one(cls) -> "RootOfUnity":
        return cls(2, 1)

    @classmethod
    def from_sign(cls, s: int) -> "RootOfUnity":
        if s not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, not {s}")
        return cls.one() if s == 1 else cls.minus_one()

    @classmethod
    def from_half_turns(cls, r) -> "RootOfUnity":
        """The value e^(pi*i*r) for rational r."""
        t = Fraction(r) / 2
        return cls(t.denominator, t.numerator)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        m = lcm(self.order, other.order)
        e = self.exponent * (m // self.order) + other.exponent * (m // other.order)
        return RootOfUnity(m, e)

    def __pow__(self, n: int) -> "RootOfUnity":
        return RootOfUnity(self.order, self.exponent * n)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity(self.order, -self.exponent)

    def is_one(self) -> bool:
        return self.order == 1

    def as_sign(self) -> int:
        """+1 or -1; raises if the value is not real."""
        if self.order == 1:
            return 1
        if self.order == 2:
            return -1
        raise ValueError(f"{self} is not a sign")

    def value(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.exponent / self.order)

    def __str__(self) -> str:
        if self.order == 1:
            return "1"
        if self.order == 2:
            return "-1"
        return f"e^(2*pi*i*{self.exponent}/{self.order})"
