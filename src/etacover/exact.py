"""Exact helpers: leading exponents of E_g at cusps, primitive roots, prime contexts.

Everything in here is plain integer arithmetic.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple


def order_numerator(exponents: dict, level: int, a: int, c: int) -> int:
    """12*level times the leading q-exponent of prod E_g^e(g) at the cusp a/c.

    Composed with a matrix of first column (a, c), E_g leads with exponent
    d^2/(2*level) * P2(a*g/d), d = gcd(c, level), P2 the periodic second
    Bernoulli function.  With x = a*g mod d that is lead_numerator(x, d)
    over 12*level, so the sum is an integer; the cusp 1/0 (infinity)
    recovers level*B(g/level)/2.
    """
    d = gcd(c, level)
    total = 0
    for g, e in exponents.items():
        total += e * lead_numerator(a * g % d, d)
    return total


def lead_numerator(x: int, d: int) -> int:
    """6x^2 - 6dx + d^2, order_numerator's term; over 12*level at (g, level), L of E_g."""
    return 6 * x * x - 6 * d * x + d * d


def fiber_numerators(exponents: dict, level: int, reps) -> list:
    """order_numerator(exponents, level, r, level) for r in reps, for r = 1 also its value at
    infinity: d = level throughout, so it is level^2 * sum e plus 6e x(x - level) per index,
    x = r*g mod level, summed index by index over every r."""
    totals = [level * level * sum(exponents.values())] * len(reps)
    for g, e in exponents.items():
        totals = [t + 6 * e * (x := r * g % level) * (x - level) for t, r in zip(totals, reps)]
    return totals


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


class PrimeContext(NamedTuple):
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

