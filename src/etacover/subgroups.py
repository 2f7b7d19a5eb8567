"""Congruence subgroups of prime level p and their cusp/character data.

Four nested groups appear, all containing the principal congruence group
of level p:

  Gamma0:      lower-left entry divisible by p
  Gamma1:      additionally a == d == 1 mod p
  Gamma2:      a mod p lies in the subgroup generated by g^k (order 2*ell)
  Gamma2Prime: index-2 kernel inside Gamma2 cut out by the sign characters

A prime's only state here is H = <g^k>, at most 12 residues (h_residues),
and no discrete log is taken: a mod p lies in H exactly when a^ell = +-1,
and that sign is chi.  Sections of cusps, lifts of residues and random
Gamma0 members complete their first column (a, c) one way: d = a^-1 mod c nearest 0.

Gamma0, Gamma1 and Gamma2 are Gamma_H(p), H the upper-left residues, and
Gamma2Prime is the sign-twisted kernel inside Gamma2, so cusp tables come
in closed form (Diamond-Shurman, A First Course in Modular Forms, ch. 3),
as cusp_reps' coset representatives and width scale (cusp_set's (a, c, width)
rows), certified by their widths summing to the index in PSL(2,Z).  A cusp
a/c is its pair (a, c), c >= 0, gcd(a, c) = 1 and (1, 0) for infinity;
section(a, c) sends infinity to it, cusp_name prints it.

Characters and multipliers are ints t, the root e^(2*pi*i*t/M) for the
modulus M their docstrings name (12, 24N, 2k or 4k); roots add.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, lcm
from typing import NamedTuple

from .exact import PrimeContext, order_numerator


class _Entries(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class SL2Matrix(_Entries):
    """Integer matrix (a, b; c, d) with determinant 1, an immutable named tuple."""

    __slots__ = ()
    __rmul__ = __add__ = lambda self, other: NotImplemented  # not tuple's repeat and concat

    def __new__(cls, a: int, b: int, c: int, d: int) -> "SL2Matrix":
        if a * d - b * c != 1:
            raise ValueError(f"determinant of {(a, b, c, d)} is not 1")
        return super().__new__(cls, a, b, c, d)

    @classmethod
    def _make(cls, iterable) -> "SL2Matrix":  # through __new__: _replace checks the determinant too
        return cls(*iterable)

    @classmethod
    def identity(cls) -> "SL2Matrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, n: int) -> "SL2Matrix":
        """The power T^n of the unit translation."""
        return cls(1, n, 0, 1)

    @classmethod
    def parse(cls, text: str) -> "SL2Matrix":
        """Read 'a,b,c,d', the entries comma-separated (the --matrix option)."""
        try:
            a, b, c, d = (int(t) for t in text.split(","))
        except ValueError as exc:
            raise ValueError(f"expected 'a,b,c,d' integers, got {text!r}") from exc
        return cls(a, b, c, d)

    def __mul__(self, other: "SL2Matrix") -> "SL2Matrix":
        if not isinstance(other, SL2Matrix):
            return NotImplemented
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "SL2Matrix":
        return SL2Matrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "SL2Matrix":
        return SL2Matrix(self.d, -self.b, -self.c, self.a)

    def apply(self, tau: complex) -> complex:
        """Moebius action (a*tau + b)/(c*tau + d).

        For c != 0 it is evaluated as a/c - 1/(c*(c*tau + d)).  Near -d/c,
        where the numeric checks sample, a*tau + b cancels down to about
        1/c, and the quotient form would lose digits in proportion to the
        entries.
        """
        if self.c == 0:
            return (self.a * tau + self.b) / self.d
        return self.a / self.c - 1 / (self.c * (self.c * tau + self.d))


class Subgroup(Enum):
    GAMMA0 = "Gamma0"
    GAMMA1 = "Gamma1"
    GAMMA2 = "Gamma2"
    GAMMA2_PRIME = "Gamma2Prime"


def h_residues(ctx: PrimeContext) -> list:
    """H = <g^k> as its 2*ell odd residues g^(nk) mod 2p, n = 0, 1, ...; g^(ell*k) = -1."""
    return [pow(ctx.g, n * ctx.k, 2 * ctx.p) for n in range(2 * ctx.ell)]


# -- characters ------------------------------------------------------------


def sign_character(m: SL2Matrix) -> int:
    """The order-2 character of the full modular group.

    Value (-1)^(a+d-1) when c is odd, (-1)^b when c is even; it is the
    6th power of the eta multiplier epsilon_factor.
    """
    if m.c % 2:
        return 1 if (m.a + m.d) % 2 else -1
    return 1 if m.b % 2 == 0 else -1


def quadratic_character(m: SL2Matrix, ctx: PrimeContext) -> int:
    """The order-2 character of Gamma2 trivial on Gamma1, for p == 1 mod 4.

    With a == g^(n*k) mod p the value is (-1)^n = a^ell mod p, and a^ell is
    +-1 exactly when a lies in H: membership and value in one power.
    """
    if ctx.ell % 2:
        raise ValueError(f"quadratic character needs p == 1 mod 4, p={ctx.p}")
    if m.c % ctx.p == 0:
        v = pow(m.a, ctx.ell, ctx.p)
        if v in (1, ctx.p - 1):
            return 1 if v == 1 else -1
    raise ValueError(f"{tuple(m)} is not in Gamma2({ctx.p})")


def twisted_sign(m: SL2Matrix, ctx: PrimeContext) -> int:
    """psi*chi on Gamma2 (psi when p == 3 mod 4): Gamma2Prime is its kernel,
    and it is F_1's character there."""
    s = sign_character(m)
    return s * quadratic_character(m, ctx) if ctx.ell % 2 == 0 else s


def epsilon_factor(a: int, b: int, c: int, d: int) -> int:
    """Multiplier of eta^2 under (a,b;c,d), in twelfths of a turn mod 12.

    eta(m tau)^2 = epsilon * (c tau + d) * eta(tau)^2, so epsilon is the
    square of the classical eta multiplier.  Two published branches: for
    odd c the value is e^(2*pi*i*(bd(1-c^2)+c(a+d-3))/12), for odd d it is
    -i times e^(2*pi*i*(ac(1-d^2)+d(b-c+3))/12); -i is folded in as 9/12
    of a turn.
    """
    if a * d - b * c != 1:
        raise ValueError(f"determinant of ({a},{b},{c},{d}) is not 1")
    if c % 2:
        return (b * d * (1 - c * c) + c * (a + d - 3)) % 12
    if d % 2:
        return (a * c * (1 - d * d) + d * (b - c + 3) + 9) % 12
    raise ValueError("c and d cannot both be even in SL(2,Z)")


def multiplier_turns(exponents: dict, level: int, m: SL2Matrix) -> int:
    """t with prod E_g^e(m tau) = e^(2*pi*i*t/(24*level)) * prod E_(a*g)^e(tau), m in Gamma0(level).

    t is not reduced mod 24N, so multipliers compose by adding.  Translations (c = 0,
    diagonal made +1) give E_g e^(pi*i*b*N*B(g/N)) and keep g: t = 2b
    times order_numerator at 1/0.  Otherwise E_g gets epsilon(a, b*N, c/N, d)
    * e^(pi*i*(g^2 a b/N - g b)): t = 2N*eps12*sum e + 12b(a*sum e g^2 - N*sum e g).
    """
    if any(g % level == 0 for g in exponents):
        raise ValueError(f"an index of {exponents} vanishes mod {level}")
    if m.c % level:
        raise ValueError(f"{tuple(m)} is not in Gamma0({level})")
    if m.c == 0:
        b = m.b if m.a == 1 else -m.b  # a = d = -1: use -m, same action
        return 2 * b * order_numerator(exponents, level, 1, 0)
    s0 = s1 = s2 = 0
    for g, e in exponents.items():
        s0, s1, s2 = s0 + e, s1 + e * g, s2 + e * g * g
    eps12 = epsilon_factor(m.a, m.b * level, m.c // level, m.d)
    return 2 * level * eps12 * s0 + 12 * m.b * (m.a * s2 - level * s1)


def eta_multiplier(g: int, level: int, m: SL2Matrix) -> tuple[int, int]:
    """(t mod 24*level, new index) with E_g(m tau) = e^(2*pi*i*t/(24*level)) * E_newindex(tau):
    t from multiplier_turns({g: 1}), the index g under a translation, else a*g unreduced."""
    return multiplier_turns({g: 1}, level, m) % (24 * level), g if m.c == 0 else m.a * g


# -- membership ------------------------------------------------------------


def is_member(m: SL2Matrix, group: Subgroup, ctx: PrimeContext) -> bool:
    p = ctx.p
    if m.c % p:
        return False
    if group is Subgroup.GAMMA0:
        return True
    if group is Subgroup.GAMMA1:
        return m.a % p == 1
    if pow(m.a, ctx.ell, p) not in (1, p - 1):  # a^ell = +-1 exactly on H = <g^k>
        return False
    if group is Subgroup.GAMMA2:
        return True
    return twisted_sign(m, ctx) == 1  # Gamma2Prime


def lift_with_upper_left(a: int, p: int) -> SL2Matrix:
    """Some element of Gamma0(p) whose upper-left entry is a mod p."""
    r = a % p
    if r == 0:
        raise ValueError(f"{a} is divisible by {p}")
    return section(r, p)


def random_member(ctx: PrimeContext, rng) -> SL2Matrix:
    """Random small-entry member of Gamma0(p); lower-left is p times an integer in [-2, 2].

    Off the translations it is +-T^i * W * T^j, W the completion of a first
    column (a, c), written down entry by entry as one matrix.
    """
    p = ctx.p
    c0 = rng.randrange(-2, 3)
    if c0 == 0:
        a, b, c, d = 1, rng.randrange(-4, 5), 0, 1
    else:
        c = p * c0
        a = rng.randrange(1, p) + p * rng.randrange(3)
        while gcd(a, c) != 1:
            a += p
        b, d = _second_column(a, c)
        j = rng.randrange(-2, 3)
        b, d = b + a * j, d + c * j
        i = rng.randrange(-2, 3)
        a, b = a + i * c, b + i * d
    s = -1 if rng.random() < 0.5 else 1
    return SL2Matrix(s * a, s * b, s * c, s * d)


def section(a: int, c: int) -> SL2Matrix:
    """(a, b; c, d) in SL(2,Z) with d = a^-1 mod c nearest 0; (a, 0; 0, a) for c = 0:
    it sends infinity to the cusp a/c.

    Raises ValueError when (a, c) is not a coprime pair."""
    if c == 0:
        return SL2Matrix(a, 0, 0, a)
    b, d = _second_column(a, c)
    return SL2Matrix(a, b, c, d)


def _second_column(a: int, c: int) -> tuple[int, int]:
    """(b, d) completing the first column (a, c), c != 0, with d = a^-1 mod c nearest 0."""
    d = pow(a, -1, c)
    d -= c * round(d / c)
    return (a * d - 1) // c, d


# -- the character cutting out Gamma2Prime ---------------------------------


def log_character(ctx: PrimeContext, n: int, m: SL2Matrix) -> int:
    """Character of Gamma0(p) with kernel exactly Gamma2Prime(p), as t mod M, at a
    member m whose upper-left entry is g^n mod p.

    The value e^(2*pi*i*t/M) is zeta^n * psi(m): zeta has order M/2, k (ell
    odd) or 2k (ell even), and psi = -1 is M/2 turns.  Its image has order
    2k = p-1 / ell, the degree of the certified covering.
    """
    big = _character_modulus(ctx)
    return (2 * n + (0 if sign_character(m) == 1 else big // 2)) % big


def _character_modulus(ctx: PrimeContext) -> int:
    """log_character's M, twice the order of zeta."""
    return 2 * ctx.k if ctx.ell % 2 else 4 * ctx.k


class QuotientStructure(NamedTuple):
    """Facts about Gamma0(p) / Gamma2Prime(p)."""

    index_gamma0_gamma2: int
    curve_index_gamma2_gamma1: int
    character_order: int
    kernel_matches: bool


def quotient_structure(ctx: PrimeContext) -> QuotientStructure:
    """Gamma0(p)/Gamma2Prime(p) from H = <g^k> and four matrices.

    H is the group of upper-left residues of Gamma2, with 2*ell <= 12
    elements: Gamma2 has index (p-1)/|H| in Gamma0, and Gamma1 has index
    |H/+-1| in Gamma2 on curves, where -1 acts trivially.

    The quotient character and Gamma2Prime membership depend on a member
    only through (n mod 2k, psi), a = g^n mod p, and Gamma0 maps onto that
    group of order 4k: the lift of g goes to (1, +-1) and T to (0, -1).  So the
    image is cyclic, generated by the values on those two, and its order
    is the lcm of theirs.  When that order is 2k, the kernel has 2 classes,
    and so has Gamma2Prime: (0, +1) and one of (k, +-1).  The kernels are
    then equal exactly when character and membership agree on I, T, L and
    L*T, L the lift of g^k, which represent (0, +-1) and (k, +-1); each n
    here is known, so log_character takes no discrete log.
    """
    p = ctx.p
    residues = [x % p for x in h_residues(ctx)]
    t = SL2Matrix.translation(1)
    top = lift_with_upper_left(residues[1], p)
    big = _character_modulus(ctx)
    generators = ((1, lift_with_upper_left(ctx.g, p)), (0, t))
    return QuotientStructure(
        index_gamma0_gamma2=(p - 1) // len(set(residues)),
        curve_index_gamma2_gamma1=len({min(a, p - a) for a in residues}),
        character_order=lcm(*(big // gcd(log_character(ctx, n, m), big) for n, m in generators)),
        kernel_matches=all(
            (log_character(ctx, n, m) == 0) == is_member(m, Subgroup.GAMMA2_PRIME, ctx)
            for n, m in ((0, SL2Matrix.identity()), (0, t), (ctx.k, top), (ctx.k, top * t))
        ),
    )


# -- cusps -----------------------------------------------------------------


def cusp_name(a: int, c: int) -> str:
    """The cusp a/c as printed: inf for (1, 0), else a/c."""
    return "inf" if c == 0 else f"{a}/{c}"


def psl_index(group: Subgroup, ctx: PrimeContext) -> int:
    """Index of the subgroup's image in PSL(2,Z); equals the cusp width sum."""
    p = ctx.p
    if group is Subgroup.GAMMA0:
        return p + 1
    if group is Subgroup.GAMMA1:
        return (p * p - 1) // 2
    if group is Subgroup.GAMMA2:
        return ctx.k * (p + 1)
    return 2 * ctx.k * (p + 1)


def cusps_equivalent(x: tuple, y: tuple, group: Subgroup, ctx: PrimeContext) -> bool:
    """Whether some member of the group maps the cusp x = (a, c) to y.

    Matrices sending x to y are exactly sec_y * (+-T^n) * sec_x^(-1).
    Conjugates of T^p land in the level-p principal group, where only the
    sign character can still vary, and it is constant on T^(2p) steps; a
    scan over n in [0, 2p) is therefore complete for every group here.
    The candidate is affine in n, and every group here needs p | c(n), so
    only those n are built.
    """
    p = ctx.p
    sec, inv = section(*y), section(*x).inverse()
    base = sec * inv
    da, db, dc, dd = sec.a * inv.c, sec.a * inv.d, sec.c * inv.c, sec.c * inv.d
    if dc % p:
        n0 = -base.c * pow(dc, -1, p) % p
        steps = (n0, n0 + p)
    else:
        steps = range(2 * p) if base.c % p == 0 else ()
    for n in steps:
        cand = SL2Matrix(base.a + n * da, base.b + n * db, base.c + n * dc, base.d + n * dd)
        if is_member(cand, group, ctx) or is_member(-cand, group, ctx):
            return True
    return False


def cusp_width(x: tuple, group: Subgroup, ctx: PrimeContext) -> int:
    """Least w >= 1 with +-sec * T^w * sec^(-1) in the group, sec = section(*x).

    Widths divide 2p: the p-th conjugated power already lies in the
    principal group, where at most a sign-character flip survives.
    """
    sec = section(*x)
    step = sec * SL2Matrix.translation(1) * sec.inverse()
    m = step
    for w in range(1, 2 * ctx.p + 1):
        if is_member(m, group, ctx) or is_member(-m, group, ctx):
            return w
        m = m * step
    raise ArithmeticError(f"no width <= {2 * ctx.p} at cusp {cusp_name(*x)}")


def cusp_reps(group: Subgroup, ctx: PrimeContext) -> tuple[range | list, int]:
    """The cusps of the group in closed form, as the columns (reps, scale).

    Let H be the group's upper-left residues: all of (Z/p)^* for Gamma0,
    {1} for Gamma1, <g^k> for Gamma2 and Gamma2Prime.  With reps r_1 = 1 <
    r_2 < ... the least representatives of the cosets of +-H in (Z/p)^*,
    the cusps are inf and r/p for r != r_1, of width scale, and 1/r for every
    r, of width scale*p (Diamond-Shurman, A First Course in Modular Forms,
    ch. 3); scale is 1, and 2 on Gamma2Prime, whose sign twist doubles the
    widths.  Widths of distinct classes sum to the PSL index, so matching the
    independently computed index shows no class is missing.

    On Gamma1 reps is 1..(p-1)/2.  Otherwise a sieve finds them: -1 lies in
    +-H, so each coset is closed under r -> p-r, and walking r = 1, ...,
    (p-1)/2, an r not yet marked is the least of its coset and marks
    min(x, p-x), x = r*h mod p, for h in +-H/+-1, that is 1..(p-1)/2 or the
    first ell elements of H (Gamma2, Gamma2Prime).
    """
    p, half = ctx.p, (ctx.p - 1) // 2
    reps = range(1, half + 1)
    if group is not Subgroup.GAMMA1:
        units = reps if group is Subgroup.GAMMA0 else [x % p for x in h_residues(ctx)[:ctx.ell]]
        marked, reps = bytearray(half + 1), []
        for r in range(1, half + 1):
            if not marked[r]:
                reps.append(r)
                for h in units:
                    x = r * h % p
                    marked[x if 2 * x < p else p - x] = 1
    scale = 2 if group is Subgroup.GAMMA2_PRIME else 1
    total = len(reps) * scale * (p + 1)  # scale at r/p (inf for r_1), scale*p at 1/r
    target = psl_index(group, ctx)
    if total != target:
        raise ArithmeticError(
            f"cusp widths for {group.value}({p}) sum to {total}, expected {target}"
        )
    return reps, scale


def cusp_set(group: Subgroup, ctx: PrimeContext) -> list[tuple[int, int, int]]:
    """Inequivalent cusps a/c with widths, as (a, c, width): cusp_reps' columns as rows."""
    reps, scale = cusp_reps(group, ctx)
    p, wide = ctx.p, scale * ctx.p  # one width int shared by every 1/r row
    return [(1, 0, scale)] + [(r, p, scale) for r in reps[1:]] + [(1, r, wide) for r in reps]
