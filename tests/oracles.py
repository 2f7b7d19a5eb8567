"""Independent oracles the tests freeze expectations against.

Everything here recomputes results from defining formulas with plain
dict/Fraction arithmetic and deliberately shares no code with the
package internals.  There are three exceptions.  scan_cusp_set reuses the
package's membership test (through cusps_equivalent and cusp_width) but
not its closed-form cusp rule.  enumerate_quotient_structure reuses the
membership test and evaluates it, with the table-based quotient_character
below, on every residue class instead of the closed form's handful of
matrices.
elliptic_counts and genus reuse the membership test, psl_index and the
closed-form cusp table, and count the elliptic points from fixed points.
half_turn_eta_multiplier reuses epsilon_factor, the eta^2 multiplier
that rademacher_eta_squared_multiplier checks, but composes the phase
in Fractions of a half turn.  transform_product reuses the one-index
eta_multiplier and merge_factors, and composes a product's law factor
by factor, where certify sums the whole product at once.
random_group_member reuses section and, for Gamma2Prime's rejection
step, the membership test.  The orbit table (g^n mod 2p for every n, and
its inverse, dlog) is the reference for the package's reads of
H = <g^k>: table_cusp_set, table_orbit_factors, table_membership,
table_quadratic_character and quotient_character take discrete logs off
it (table_membership and quotient_character reuse sign_character), and
merged_z_relation merges every F_(g^j) factor with merge_factors and
reads its leading exponent with order_numerator.  per_law_E_transforms
takes the E_g residual law by law, one eta_multiplier per index and one
evaluation per side, with its own copy of the truncated-product loop; it
reuses reduce_index and order_numerator.  dumps_report writes a report
through json.dumps, the cusp rows spliced in.  sorted_cusps_text prints
cusp_set's table sorted by (c, a), a row per line, as the cusps command
did before it wrote the rows from cusp_reps' columns.

A root of unity e^(2*pi*i*x) is the Fraction x mod 1 here, its turns in
[0, 1): roots compose by adding turns, and the package's int roots t
over a modulus M compare as turns(t, M).
"""

import cmath
import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, gcd, lcm, pi

from etacover.certify import report_to_dict
from etacover.eta import EtaProduct, merge_factors, reduce_index
from etacover.exact import order_numerator
from etacover.subgroups import (
    QuotientStructure,
    SL2Matrix,
    Subgroup,
    cusp_name,
    cusp_set,
    cusp_width,
    cusps_equivalent,
    epsilon_factor,
    eta_multiplier,
    is_member,
    lift_with_upper_left,
    psl_index,
    section,
    sign_character,
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


def fraction_render(s) -> str:
    """QSeries.render spelled with one Fraction per term: terms by increasing
    exponent n/denom, each exponent printed as its reduced Fraction, then the
    O-term.  Reads only the denom/coeffs/trunc attributes of s."""
    parts = []
    for n in sorted(s.coeffs):
        c = s.coeffs[n]
        e = Fraction(n, s.denom)
        mag = -c if c < 0 else c
        body = str(mag) if e == 0 else f"{mag}*q^({e})"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    tail = f"O(q^({s.trunc}))"
    if not parts:
        return tail
    return " ".join(parts) + " + " + tail


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
    """Candidates (a, c) covering every class: infinity, a/p, 1/c, then CRT lifts."""
    yield 1, 0
    for a in range(1, p):
        yield a, p
    for c in range(1, p + 1):
        yield 1, c
    for c in range(1, p):
        cinv = pow(c, -1, p)
        for abar in range(p):
            # a == abar mod p and a == 1 mod c, so (a, c) is coprime
            t = (abar - 1) * cinv % p
            yield 1 + c * t, c


def scan_cusp_set(group, ctx):
    """The cusp table by scanning candidates against the representatives so far.

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


def literal_orbit_factors(h: int, ctx) -> list:
    """(g^(jk) mod 2p times h, 6/ell) for j < ell: the factors of F_h as
    its definition writes them, unreduced, so that their reduction signs
    are those of the literal product."""
    e = 6 // ctx.ell
    return [(pow(ctx.g, j * ctx.k, 2 * ctx.p) * h, e) for j in range(ctx.ell)]


def literal_z_factors(ctx) -> list:
    """The literal factors of every F_(g^j), j < k, with g^j taken mod p."""
    return [f for j in range(ctx.k) for f in literal_orbit_factors(pow(ctx.g, j, ctx.p), ctx)]


def coset_sweep(group, ctx) -> list:
    """Least representatives r_1 = 1 < r_2 < ... of the cosets of +-H in (Z/p)^*.

    H is the group's upper-left residues, the powers of g with exponents
    stepping by 1 (Gamma0), p-1 (Gamma1) or k (Gamma2, Gamma2Prime).  Each
    r not yet covered becomes a representative and covers its coset.
    """
    p = ctx.p
    step = {Subgroup.GAMMA0: 1, Subgroup.GAMMA1: p - 1}.get(group, ctx.k)
    plus_minus_h = [s * pow(ctx.g, n, p) for n in range(0, p - 1, step) for s in (1, -1)]
    reps, covered = [], set()
    for r in range(1, p):
        if r not in covered:
            reps.append(r)
            covered.update(x * r % p for x in plus_minus_h)
    return reps


@lru_cache(maxsize=1)  # the comparisons work one prime at a time
def orbit_table(p: int, g: int) -> tuple[list, dict]:
    """(g^n mod 2p for n < p-1, the map g^n mod p -> n); g is odd, so is every power."""
    powers = [1]
    for _ in range(p - 2):
        powers.append(powers[-1] * g % (2 * p))
    return powers, {x % p: n for n, x in enumerate(powers)}


def dlog(ctx, a: int) -> int:
    """n in [0, p-2] with g^n == a mod p."""
    r = a % ctx.p
    if r == 0:
        raise ValueError(f"{a} is divisible by {ctx.p}")
    return orbit_table(ctx.p, ctx.g)[1][r]


def power(ctx, n: int) -> int:
    """g^n mod 2p, odd, for any integer n."""
    return orbit_table(ctx.p, ctx.g)[0][n % (ctx.p - 1)]


def table_cusp_set(group, ctx) -> list:
    """The cusp table as (a, c, width) with the cosets of +-H read off the table.

    +-H is generated by g^m, m = 1, (p-1)/2 and k in turn for Gamma0, Gamma1
    and Gamma2 (Gamma2Prime), so the coset of r is dlog(r) mod m; a
    descending pass leaves the least r of each.  Rows as cusp_set lists them.
    """
    p = ctx.p
    m = {Subgroup.GAMMA0: 1, Subgroup.GAMMA1: (p - 1) // 2}.get(group, ctx.k)
    logs = orbit_table(p, ctx.g)[1]
    reps = sorted({logs[r] % m: r for r in range(p - 1, 0, -1)}.values())
    scale = 2 if group is Subgroup.GAMMA2_PRIME else 1
    return [(1, 0, scale)] + [(r, p, scale) for r in reps[1:]] + [(1, r, scale * p) for r in reps]


def sorted_cusps_text(group, ctx) -> str:
    """The cusps command's stdout: cusp_set's table sorted by (c, a), then its size and
    width sum."""
    table = sorted(cusp_set(group, ctx), key=lambda row: (row[1], row[0]))
    lines = [f"{cusp_name(a, c):>8}  width {width}\n" for a, c, width in table]
    total = psl_index(group, ctx)
    return "".join(lines) + f"{len(table)} cusps of {group.value}({ctx.p}), width sum {total}\n"


def table_orbit_factors(h: int, ctx) -> list:
    """The factors (g^(n+jk) mod 2p, 6/ell), j < ell, n = dlog(h), of F_h."""
    n, e = dlog(ctx, h), 6 // ctx.ell
    return [(power(ctx, n + j * ctx.k), e) for j in range(ctx.ell)]


def merged_z_relation(ctx) -> tuple:
    """(exponents, sign, leading exponent) of prod_{j<k} F_(g^j), its factors
    E_(g^n mod 2p)^(6/ell), n < (p-1)/2, merged in one merge_factors call."""
    e = 6 // ctx.ell
    exponents, sign = merge_factors(ctx.p, [(power(ctx, n), e) for n in range((ctx.p - 1) // 2)])
    return exponents, sign, Fraction(order_numerator(exponents, ctx.p, 1, 0), 12 * ctx.p)


def table_quadratic_character(m, ctx) -> int:
    """(-1)^n for a member m of Gamma2, a == g^(n*k) mod p (ell even)."""
    n, rest = divmod(dlog(ctx, m.a), ctx.k)
    if m.c % ctx.p or rest or ctx.ell % 2:
        raise ValueError(f"{tuple(m)} has no quadratic character at p={ctx.p}")
    return 1 if n % 2 == 0 else -1


def table_membership(m, group, ctx) -> bool:
    """Membership with Gamma2 read as dlog(a) == 0 mod k, and Gamma2Prime as
    the kernel of psi*chi (psi when ell is odd) inside it."""
    p = ctx.p
    if m.c % p:
        return False
    if group is Subgroup.GAMMA0:
        return True
    if group is Subgroup.GAMMA1:
        return m.a % p == 1
    if dlog(ctx, m.a) % ctx.k:
        return False
    if group is Subgroup.GAMMA2:
        return True
    chi = table_quadratic_character(m, ctx) if ctx.ell % 2 == 0 else 1
    return sign_character(m) * chi == 1


def quotient_character(ctx, m: SL2Matrix) -> int:
    """Character of Gamma0(p) with kernel exactly Gamma2Prime(p), as t mod M.

    For a == g^n mod p the value e^(2*pi*i*t/M) is zeta^n * psi(m), n the
    table's dlog: zeta has order M/2, k (ell odd) or 2k (ell even), and
    psi = -1 is M/2 turns.
    """
    if m.c % ctx.p:
        raise ValueError(f"{tuple(m)} is not in Gamma0({ctx.p})")
    big = character_modulus(ctx)
    return (2 * dlog(ctx, m.a) + (0 if sign_character(m) == 1 else big // 2)) % big


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
            orders.append(turns(lam, character_modulus(ctx)).denominator)
            if (lam == 0) != is_member(m, Subgroup.GAMMA2_PRIME, ctx):
                kernel_ok = False
    return QuotientStructure(
        index_gamma0_gamma2=(p - 1) // in_g2,
        curve_index_gamma2_gamma1=len(curve_classes),
        character_order=lcm(*orders),
        kernel_matches=kernel_ok,
    )


def character_modulus(ctx) -> int:
    """M with quotient_character(ctx, m) = t for the value e^(2*pi*i*t/M):
    zeta has order k (ell odd) or 2k (ell even), M is twice that."""
    return 2 * (ctx.k if ctx.ell % 2 else 2 * ctx.k)


def turns(t: int, modulus: int) -> Fraction:
    """The root e^(2*pi*i*t/modulus) as turns in [0, 1)."""
    return Fraction(t, modulus) % 1


def from_half_turns(r) -> Fraction:
    """The root e^(pi*i*r) for rational r, as turns in [0, 1)."""
    return Fraction(r) / 2 % 1


@lru_cache(maxsize=None)
def dedekind_sum(d: int, c: int) -> Fraction:
    """s(d, c) = sum over r = 1..c-1 of ((r/c)) ((d r/c)), c > 0, from its definition.

    ((x)) is x - floor(x) - 1/2, and 0 at integers.  At x = n/c that is
    (2(n mod c) - c)/(2c) when c does not divide n, so the sum is taken
    over integers and divided by 4c^2 once.
    """
    total = sum((2 * r - c) * (2 * (d * r % c) - c) for r in range(1, c) if d * r % c)
    return Fraction(total, 4 * c * c)


def rademacher_eta_squared_multiplier(a: int, b: int, c: int, d: int) -> Fraction:
    """eps with eta(m tau)^2 = eps * (c tau + d) * eta(tau)^2 in turns, from Dedekind sums.

    For c > 0, Rademacher: eta(m tau) = e^(pi*i*r) (c tau + d)^(1/2) eta(tau)
    with r = (a+d)/(12c) - s(d, c) - 1/4, so eps = e^(2*pi*i*r).  -m acts
    as m does while c tau + d changes sign, so c < 0 takes -eps(-m).  For
    c = 0, m tau = tau + b*d and eta(tau + n) = e^(pi*i*n/12) eta(tau), so
    eps = d * e^(pi*i*b*d/6).
    """
    if a * d - b * c != 1:
        raise ValueError(f"determinant of ({a},{b},{c},{d}) is not 1")
    if c < 0:
        return (rademacher_eta_squared_multiplier(-a, -b, -c, -d) + Fraction(1, 2)) % 1
    if c == 0:
        return from_half_turns(Fraction(b * d, 6) + (1 - d) // 2)
    r = Fraction(a + d, 12 * c) - dedekind_sum(d % c, c) - Fraction(1, 4)
    return from_half_turns(2 * r)


def eta_half_turns(a: int, b: int, c: int, d: int) -> Fraction:
    """r with eta(m tau) = e^(pi*i*r) (c tau + d)^(1/2) eta(tau), m taken with c > 0 or c = 0 < d.

    -m acts as m does, so m is first put in that form; the square root
    then depends on (c, d) alone, and two matrices with the same c tau + d
    share it.  For c > 0 r is Rademacher's (a+d)/(12c) - s(d, c) - 1/4; for
    c = 0, m tau = tau + b and eta(tau + b) = e^(pi*i*b/12) eta(tau).
    """
    if c < 0 or c == 0 and d < 0:
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        return Fraction(b, 12)
    return Fraction(a + d, 12 * c) - dedekind_sum(d % c, c) - Fraction(1, 4)


def eta_quotient_multiplier(m: SL2Matrix, p: int) -> Fraction:
    """The multiplier of eta(tau)/eta(p tau) under m in Gamma0(p), in turns.

    p*(m tau) = m'(p tau) with m' = (a, pb; c/p, d), and c tau + d is
    (c/p)(p tau) + d, so the square roots cancel and the multiplier is
    e^(pi*i*(r(m) - r(m'))), r from eta_half_turns.
    """
    r = eta_half_turns(m.a, m.b, m.c, m.d) - eta_half_turns(m.a, p * m.b, m.c // p, m.d)
    return from_half_turns(r)


def reduced_law(g: int, level: int, m: SL2Matrix, multiplier) -> tuple:
    """(x, r) with E_g(m tau) = e^(2*pi*i*x) * E_r(tau), 1 <= r <= level/2, x in turns.

    multiplier(g, level, m) gives (t, unreduced new index) for the root
    e^(2*pi*i*t/(24*level)), as eta_multiplier does; the new index is
    reduced here by E_(x+N) = -E_x and E_(N-x) = E_x, its sign folded in
    as half a turn.
    """
    t, new = multiplier(g, level, m)
    shifts, r = divmod(new, level)
    return turns(12 * level * shifts + t, 24 * level), min(r, level - r)


def product_identity_holds(p: int, m: SL2Matrix, multiplier) -> bool:
    """Whether the E_r, 1 <= r <= (p-1)/2, transform as eta(tau)/eta(p tau) does.

    Their product is eta(tau)/eta(p tau) (every n prime to p is N(m-1)+r
    or Nm-r for exactly one such r), and m permutes the r up to sign, so
    the turns, added up, must give eta_quotient_multiplier.
    """
    root, moved = Fraction(0), []
    for g in range(1, (p - 1) // 2 + 1):
        mult, r = reduced_law(g, p, m, multiplier)
        root += mult
        moved.append(r)
    half = list(range(1, (p - 1) // 2 + 1))
    return sorted(moved) == half and root % 1 == eta_quotient_multiplier(m, p)


def cocycle_holds(g: int, level: int, m1: SL2Matrix, m2: SL2Matrix, multiplier) -> bool:
    """E_g((m1 m2) tau) = E_g(m1 (m2 tau)): the law of m1 m2 is that of m1
    followed by that of m2 on the moved index, reduction signs included."""
    root1, r1 = reduced_law(g, level, m1, multiplier)
    root2, r2 = reduced_law(r1, level, m2, multiplier)
    return reduced_law(g, level, m1 * m2, multiplier) == ((root1 + root2) % 1, r2)


def transform_product(prod: EtaProduct, gamma: SL2Matrix) -> tuple:
    """(x, moved) with prod(gamma tau) = e^(2*pi*i*x) * moved(tau), gamma in Gamma0, x in turns.

    Each E_g^e contributes e times its own eta_multiplier turns and
    moves to its new index; the moved factors are merged by merge_factors.
    """
    root, moved = Fraction(0), []
    for g, e in prod.exponents.items():
        t, new_index = eta_multiplier(g, prod.level, gamma)
        root += turns(e * t, 24 * prod.level)
        moved.append((new_index, e))
    merged = merge_factors(prod.level, moved, prod.sign)
    return root % 1, EtaProduct(prod.level, *merged, prod.label)


def half_turn_eta_multiplier(g: int, level: int, m: SL2Matrix):
    """(x, unreduced new index) with E_g(m tau) = e^(2*pi*i*x) * E_new(tau), x in turns.

    The multiplier in half turns (Yang 2004): a translation +-T^b gives
    e^(pi*i*b*N*B(g/N)) and keeps g; any other m in Gamma0(N) gives
    epsilon(a, b*N, c/N, d) * e^(pi*i*(g^2 a b/N - g b)) and moves g to a*g.
    """
    if m.c == 0:
        b = m.b if m.a == 1 else -m.b
        lead = leading_exponent_at(g, level, SL2Matrix.identity())
        return from_half_turns(2 * b * lead), g
    eps = turns(epsilon_factor(m.a, m.b * level, m.c // level, m.d), 12)
    phase = from_half_turns(Fraction(g * g * m.a * m.b, level) - g * m.b)
    return (eps + phase) % 1, m.a * g


def power_eval_generalized_eta(g: int, level: int, tau: complex) -> complex:
    """E_g at tau as a truncated product, each factor's q-power taken alone.

    Same truncation rule as the package (first dropped factor below about
    e^-45), but every 1 - q^n is built from its own q ** n and the
    leading exponent N*B(g/N)/2 is taken in Fractions.
    """
    terms = max(4, ceil(45.0 / (2 * pi * tau.imag * level)) + 2)
    q = cmath.exp(2j * pi * tau)
    m = range(1, terms + 1)
    lead = leading_exponent_at(g, level, SL2Matrix.identity())
    head = cmath.exp(2j * pi * tau * float(lead))
    value = head * math.prod(1 - q ** (level * (n - 1) + g) for n in m)
    return value * math.prod(1 - q ** (level * n - g) for n in m)


def unit_law_by_class(prod: EtaProduct, factors, ctx) -> dict:
    """The values of f = c*psi in turns, by class, on all 6(p-1) classes of
    (Z/p)^* x SL2(Z/2) and on +-T^b for -4 <= b <= 4.

    prod(gamma tau) = c(gamma) prod_a(tau) through transform_product, prod_a
    the literal factors (g, e) of prod with each g times a mod p (times 1
    under a translation), and psi = e^(pi*i*eps), the eta^12 multiplier,
    for epsilon_factor's eps in twelfths.  The class of gamma is gamma
    mod 2 when c != 0 and ("T", b mod 2) when c = 0.  Each class of the
    product group is reached by a first column (a, c) with a == r mod p, c
    in {p, 2p}, completed by d = a^-1 mod c and then moved by T.
    """
    p, by_class = ctx.p, {}

    def record(key, m, r):
        target = EtaProduct.from_factors(p, [(r * g, e) for g, e in factors], f"target_{r}")
        root, moved = transform_product(prod, m)
        assert moved.exponents == target.exponents, (m, r)
        half_turns = (moved.sign != target.sign) + epsilon_factor(*m)
        by_class.setdefault(key, set()).add((root + Fraction(half_turns, 2)) % 1)

    for b in range(-4, 5):
        for s in (1, -1):
            record(("T", b % 2), SL2Matrix(s, s * b, 0, s), 1)
    for r in range(1, p):
        for a, c in ((r, p), (r + p, p), (r if r % 2 else r + p, 2 * p)):
            d = pow(a, -1, c)
            base = SL2Matrix(a, (a * d - 1) // c, c, d)
            for m in (base, SL2Matrix(a, base.b + a, c, d + c)):
                record(tuple(x % 2 for x in m), m, r)
    return by_class


def elliptic_elements(p: int) -> list:
    """(tr, m) for m = (a, b; p, tr - a), 0 <= a < p, a^2 - tr*a + 1 == 0 mod p:
    elements of Gamma0(p) of order 4 (tr = 0) and of order 3 or 6 (tr = -1, 1).

    Each elliptic point of X_0(p) of order 2 is fixed by one of them with
    tr = 0, and each of order 3 by one with tr = 1 and one with tr = -1
    (m and -m^-1, whose upper-left entry is a - 1).
    """
    return [
        (tr, SL2Matrix(a, (a * (tr - a) - 1) // p, p, tr - a))
        for tr in (0, 1, -1)
        for a in range(p)
        if (a * (tr - a) - 1) % p == 0
    ]


def elliptic_counts(group, ctx, elements) -> tuple:
    """(eps2, eps3) of the group, counted from the fixed points of elements.

    The group is normal in Gamma0(p) up to +-1 (its image is cut out by the
    upper-left residue and a character), so over an elliptic point of
    X_0(p) either every one of its mu/(p+1) points is elliptic, when the
    fixing element lies in +-group, or none is.
    """
    points = psl_index(group, ctx) // (ctx.p + 1)
    inside = [tr for tr, m in elements if any(is_member(x, group, ctx) for x in (m, -m))]
    order3, rest = divmod(len(inside) - inside.count(0), 2)
    assert rest == 0, (group, ctx.p)
    return points * inside.count(0), points * order3


def genus(group, ctx, elements) -> Fraction:
    """g = 1 + mu/12 - eps2/4 - eps3/3 - eps_inf/2 (Diamond-Shurman, Thm 3.1.1),
    mu = psl_index and eps_inf = len(cusp_set)."""
    eps2, eps3 = elliptic_counts(group, ctx, elements)
    mu, cusps = psl_index(group, ctx), len(cusp_set(group, ctx))
    return 1 + Fraction(mu, 12) - Fraction(eps2, 4) - Fraction(eps3, 3) - Fraction(cusps, 2)


def random_group_member(group, ctx, rng) -> SL2Matrix:
    """Random small-entry member of the group; lower-left is p times an integer in [-2, 2].

    Drawn call for call as random_member draws from Gamma0, with the residue
    g^(k*n) mod p (Gamma2, Gamma2Prime) or 1 (Gamma1, unsigned) in place of a
    uniform one.  Gamma2Prime rejects the draws outside it, about half of Gamma2's.
    """
    p = ctx.p
    while True:
        c0 = rng.randint(-2, 2)
        if c0 == 0:
            a, b, c, d = 1, rng.randint(-4, 4), 0, 1
        else:
            if group is Subgroup.GAMMA0:
                res = rng.randrange(1, p)
            elif group is Subgroup.GAMMA1:
                res = 1
            else:
                res = pow(ctx.g, ctx.k * rng.randrange(2 * ctx.ell), p)
            c, a = p * c0, res + p * rng.randint(0, 2)
            while gcd(a, c) != 1:
                a += p
            _, b, _, d = section(a, c)
            j = rng.randint(-2, 2)
            b, d = b + a * j, d + c * j
            i = rng.randint(-2, 2)
            a, b = a + i * c, b + i * d
        s = -1 if group is not Subgroup.GAMMA1 and rng.random() < 0.5 else 1
        m = SL2Matrix(s * a, s * b, s * c, s * d)
        if group is not Subgroup.GAMMA2_PRIME or is_member(m, group, ctx):
            return m


def _point(tau: complex, level: int) -> tuple:
    """2*pi*i*tau, q, q^level and the term count at tau, as the package prepares a point."""
    z = complex(tau)
    s = 2j * pi * z
    q = cmath.exp(s)
    return s, q, q ** level, max(4, ceil(45.0 / (2 * pi * z.imag * level)) + 2)


def _side(lead: float, g: int, level: int, point: tuple, shift: float) -> complex:
    """e^(s*lead - shift) times E_g's unit part, from the running powers q^g, q^(N-g)."""
    s, q, step, terms = point
    value = cmath.exp(s * lead - shift)
    lo, hi = q ** g, q ** (level - g)
    for _ in range(terms):
        value *= (1 - lo) * (1 - hi)
        lo *= step
        hi *= step
    return value


def per_law_E_transforms(indices, level: int, gamma: SL2Matrix, samples) -> float:
    """Max relative error of E_g(gamma tau) = mult * E_(a g)(tau) over g in indices, law by law.

    Each index's turns come from its own eta_multiplier call; per sample and
    law both sides are evaluated, divided by |q^L| of the left side at gamma
    tau, and folded with max, the same float operations in the same order as
    the package.
    """
    laws = []
    for g in indices:
        t, new_index = eta_multiplier(g, level, gamma)
        r, sign = reduce_index(new_index, level)
        n = gcd(t, 24 * level)
        mult = cmath.exp(2j * pi * (t // n) / (24 * level // n))
        laws.append((g, mult * sign, r))
    worst = 0.0
    for tau in samples:
        here, there = _point(tau, level), _point(gamma.apply(complex(tau)), level)
        for g, factor, r in laws:
            lead = order_numerator({g: 1}, level, 1, 0) / (12 * level)
            shift = (there[0] * lead).real
            left = _side(lead, g, level, there, shift)
            rlead = order_numerator({r: 1}, level, 1, 0) / (12 * level)
            right = factor * _side(rlead, r, level, here, shift)
            err = abs(left - right) / max(abs(left), abs(right), 1e-300)
            worst = max(worst, err)
    return worst


_ROW = '    {\n      "a": %d,\n      "c": %d,\n      "width": %d,\n      "order": %d\n    }'


def dumps_report(report) -> str:
    """json.dumps(report_to_dict(report), indent=2), the cusp rows written in as json.dumps
    would give them: json.dumps writes a string on one line with its quotes escaped, so
    the report's own "cusps": [] is the one place the rows can go."""
    text = json.dumps(report_to_dict(report._replace(cusps=())), indent=2)
    if not report.cusps:
        return text
    rows = ",\n".join(_ROW % row for row in report.cusps)
    head, _, tail = text.partition('\n  "cusps": []')
    return f'{head}\n  "cusps": [\n{rows}\n  ]{tail}'
