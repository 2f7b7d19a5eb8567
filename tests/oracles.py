"""Independent oracles the tests freeze expectations against.

Everything here recomputes results from defining formulas with plain
dict/Fraction arithmetic and deliberately shares no code with the
package internals.  There are two exceptions.  scan_cusp_set reuses the
package's membership test (through cusps_equivalent and cusp_width) but
not its closed-form cusp rule.  enumerate_quotient_structure reuses the
quotient character and the membership test, but evaluates them on every
residue class instead of the closed form's handful of matrices.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from etacover.subgroups import (
    Cusp,
    QuotientStructure,
    SL2Matrix,
    Subgroup,
    cusp_width,
    cusps_equivalent,
    is_member,
    lift_with_upper_left,
    psl_index,
    quotient_character,
)


def brute_eta_expansion(g: int, level: int, steps: int):
    """Coefficients of E_g straight from its defining product.

    Works for any integer g not divisible by the level: factors with
    negative exponent are folded through (1 - q^-e) = -q^-e (1 - q^e),
    so index identities under g -> g + level and g -> -g come out of the
    algebra rather than any reduction convention.

    Returns (denom, {numerator: coefficient}) on the lattice (1/denom)Z,
    complete for all exponents below the (folded) leading term + steps.
    """
    if g % level == 0:
        raise ValueError("index divisible by the level")
    x = Fraction(g, level)
    lead = Fraction(level, 2) * (x * x - x + Fraction(1, 6))
    sign = 1
    fold = 0
    unit_exps = []
    m = 1
    while True:
        pair = (level * (m - 1) + g, level * m - g)
        for e in pair:
            if e < 0:
                sign = -sign
                fold += e
                unit_exps.append(-e)
            else:
                unit_exps.append(e)
        if min(pair) > 0 and min(pair) >= steps:
            break
        m += 1
    poly = {0: Fraction(sign)}
    for e in unit_exps:
        if e >= steps:
            continue
        nxt = dict(poly)
        for n, c in poly.items():
            if n + e < steps:
                nxt[n + e] = nxt.get(n + e, Fraction(0)) - c
        poly = {n: c for n, c in nxt.items() if c}
    denom = 24 * level
    base = (lead + fold) * denom
    assert base.denominator == 1
    return denom, {int(base) + n * denom: c for n, c in poly.items()}


def pentagonal_eta(steps: int):
    """eta(tau) coefficients from the pentagonal number series."""
    coeffs = {}
    k = 1
    coeffs[1] = Fraction(1)
    while k * (3 * k - 1) // 2 < steps:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < steps:
                coeffs[1 + 24 * e] = Fraction(-1 if k % 2 else 1)
        k += 1
    return 24, coeffs


def brute_classical_eta(scale: int, steps: int):
    """eta(scale*tau) coefficients straight from prod (1 - q^(scale*m)).

    Returns (24, {numerator: coefficient}) on the lattice (1/24)Z,
    complete for all exponents below scale/24 + steps.
    """
    poly = {0: Fraction(1)}
    e = scale
    while e < steps:
        nxt = dict(poly)
        for n, c in poly.items():
            if n + e < steps:
                nxt[n + e] = nxt.get(n + e, Fraction(0)) - c
        poly = {n: c for n, c in nxt.items() if c}
        e += scale
    return 24, {scale + 24 * n: c for n, c in poly.items()}


def coin_change_partitions(n: int) -> list[int]:
    """p(0..n) by counting multisets of parts, adding parts 1, 2, ..., n in turn."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways


def naive_product(a, b):
    """(denom, trunc, coeffs) of the product of two truncated q-series.

    Reads only the denom/coeffs/trunc attributes of its arguments and
    multiplies every pair of terms as Fractions.  The product is exact
    below t = min(trunc_a + lead_b, trunc_b + lead_a), lead being the
    lowest stored exponent, or the truncation of a zero series.
    """
    denom = lcm(a.denom, b.denom)

    def terms(s):
        return {Fraction(n, s.denom): Fraction(c) for n, c in s.coeffs.items()}

    ta, tb = terms(a), terms(b)
    lead_a = min(ta, default=Fraction(a.trunc))
    lead_b = min(tb, default=Fraction(b.trunc))
    trunc = min(a.trunc + lead_b, b.trunc + lead_a)
    out = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            if e1 + e2 < trunc:
                n = int((e1 + e2) * denom)
                out[n] = out.get(n, Fraction(0)) + c1 * c2
    return denom, trunc, {n: c for n, c in out.items() if c}


def multiplicative_order(a: int, p: int) -> int:
    v, n = a % p, 1
    while v != 1:
        v = v * a % p
        n += 1
    return n


def least_primitive_root(p: int) -> int:
    return next(s for s in range(2, p) if multiplicative_order(s, p) == p - 1)


def smallest_triplet(p: int):
    half = (p - 1) // 2
    for trip in product(range(1, half + 1), repeat=3):
        if sum(t * t for t in trip) % p == 0:
            return trip
    return None


def _cusp_candidates(p: int):
    """Candidates covering every class: infinity, a/p, 1/c, then CRT lifts."""
    yield Cusp.infinity()
    for a in range(1, p):
        yield Cusp(a, p)
    for c in range(1, p + 1):
        yield Cusp(1, c)
    for c in range(1, p):
        cinv = pow(c, -1, p)
        for abar in range(p):
            # a == abar mod p and a == 1 mod c, so (a, c) is coprime
            t = (abar - 1) * cinv % p
            yield Cusp(1 + c * t, c)


def scan_cusp_set(group, ctx):
    """Cusp table by scanning candidates against the representatives so far.

    Each candidate not equivalent to an earlier representative becomes one,
    with its width found by search.  The scan stops once the widths reach
    the PSL index after the first families (infinity, a/p, 1/c); at prime
    level those already represent every class.
    """
    target = psl_index(group, ctx)
    found = []
    total = 0
    primary = 1 + (ctx.p - 1) + ctx.p
    for i, cand in enumerate(_cusp_candidates(ctx.p)):
        if i >= primary and total == target:
            break
        if any(cusps_equivalent(cand, rep, group, ctx) for rep, _ in found):
            continue
        w = cusp_width(cand, group, ctx)
        found.append((cand, w))
        total += w
    if total != target:
        raise ArithmeticError(
            f"cusp widths for {group.value}({ctx.p}) sum to {total}, expected {target}"
        )
    return found


def periodic_bernoulli2(x) -> Fraction:
    """Periodic second Bernoulli function {x}^2 - {x} + 1/6.

    {x} = x - floor(x), so the value is 1-periodic and, because
    {-x} = 1 - {x} off the integers, also even.
    """
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    return frac * frac - frac + Fraction(1, 6)


def leading_exponent_at(g: int, level: int, gamma) -> Fraction:
    """Leading q-exponent of E_g composed with gamma in SL(2,Z).

    With d = gcd(c, level) the value is d^2/(2*level) * P2(a*g/d), P2 the
    periodic second Bernoulli function; gamma = identity recovers the
    leading exponent at infinity.
    """
    d = gcd(gamma.c, level)
    return Fraction(d * d, 2 * level) * periodic_bernoulli2(Fraction(gamma.a * g, d))


def enumerate_quotient_structure(ctx) -> QuotientStructure:
    """Enumerate Gamma0(p)/Gamma2Prime(p) through explicit lifts.

    For every residue class a = g^n we take a lift and its translate by T
    (the two differ in sign character), evaluate the quotient character,
    and compare its kernel against direct Gamma2Prime membership.  The
    image of a finite set of roots of unity generates a cyclic group of
    order lcm of the element orders.
    """
    p = ctx.p
    in_g2 = 0
    curve_classes = set()
    orders = [1]
    kernel_ok = True
    t = SL2Matrix.translation(1)
    for n in range(p - 1):
        a = pow(ctx.g, n, p)
        if n % ctx.k == 0:
            in_g2 += 1
            curve_classes.add(min(a, p - a))
        base = lift_with_upper_left(a, p)
        for m in (base, base * t):
            lam = quotient_character(ctx, m)
            orders.append(lam.order)
            if lam.is_one() != is_member(m, Subgroup.GAMMA2_PRIME, ctx):
                kernel_ok = False
    return QuotientStructure(
        index_gamma0_gamma2=(p - 1) // in_g2,
        curve_index_gamma2_gamma1=len(curve_classes),
        character_order=lcm(*orders),
        kernel_matches=kernel_ok,
    )
