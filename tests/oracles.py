"""Independent oracles the tests freeze expectations against.

Everything here recomputes results from defining formulas with plain
dict/Fraction arithmetic and deliberately shares no code with the
package internals.  The one exception is scan_cusp_set, which reuses the
package's membership test (through cusps_equivalent and cusp_width) but
not its closed-form cusp rule.
"""

from fractions import Fraction
from itertools import product

from etacover.subgroups import Cusp, cusp_width, cusps_equivalent, psl_index


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
