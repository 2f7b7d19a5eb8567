"""Per-prime certification of the cyclic covering data.

For each prime p the certifier checks, on ints (exponent dicts, signs,
turns mod 24p), with complex evaluation of E_g alone:

  shifting            index shifts of the units F_h (formal products)
  transformation-law  the unit's character laws on all of its group, proved
                      on eight matrix classes (E_g residuals as evidence)
  invariance          congruence criterion and odd order at infinity
  quotient-structure  Gamma0/Gamma2Prime is cyclic of the covering degree
  cusp-orders         odd order at every cusp, order 1 off the p | c fiber
  z-relation          z = +-prod F_{g^j} as formal eta products
                      (primes not 1 mod 8)

The unit (F_1, or G when p == 11 mod 12) is derived once per prime and
passed to the checks that read it.  The verdict plus the cusp rows (a
CuspTable of columns, which yields int CuspRow named tuples) form a
CertReport, serialized as the bytes of json.dumps(indent=2) with a stable
key layout, written in pieces by ``report_chunks``: ``_dumps`` for all but
the cusp rows, which are written from the columns.
"""

from __future__ import annotations

import json
import random
from collections.abc import Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import NamedTuple

from .exact import fiber_numerators, is_prime, order_numerator, prime_context, PrimeContext
from .eta import (
    EtaProduct,
    find_triplet,
    is_modular_unit,
    merge_factors,
    orbit_factors,
    orbit_product,
    triplet_product,
)
from .numeric import balanced_samples, check_E_transforms
from .subgroups import (
    SL2Matrix,
    Subgroup,
    cusp_name,
    cusp_reps,
    h_residues,
    lift_with_upper_left,
    multiplier_turns,
    psl_index,
    quotient_structure,
    random_member,
    section,
    sign_character,
    twisted_sign,
)

DEFAULT_SEED = 20260823
TOL = 1e-8        # E_g residual tolerance
N_RANDOM = 20     # random matrices per transformation-law check


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skipped"
    reason: str | None = None
    witness: dict | None = None


class CuspRow(NamedTuple):
    a: int
    c: int
    width: int
    order: int


class CuspTable(Sequence):
    """cusp_orders' CuspRows as columns: inf and r/p, width scale and orders[i] at r =
    reps[i] (inf at r = 1), then 1/r for r in reps, width scale*p and the one order."""

    def __init__(self, reps, orders: list, p: int, scale: int, order: int):
        self.reps, self.orders, self.p, self.scale, self.order = reps, orders, p, scale, order

    def __len__(self) -> int:
        return 2 * len(self.reps)

    def __getitem__(self, i: int) -> CuspRow:
        i, n = range(len(self))[i], len(self.reps)
        if i < n:
            return CuspRow(self.reps[i], self.p if i else 0, self.scale, self.orders[i])
        return CuspRow(1, self.reps[i - n], self.scale * self.p, self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


class CertReport(NamedTuple):
    p: int
    g: int
    k: int
    ell: int
    Np: int
    degree: int
    branch: str
    checks: tuple
    cusps: Sequence  # a CuspTable, or () with no cusp-orders check
    overall: bool


def branch_name(p: int) -> str:
    if p in (2, 3):
        return "small-p"
    if p % 12 == 11:
        return "G"
    if p % 4 == 1:
        return "F-chi"
    return "F-psi"


def _certified_unit(ctx: PrimeContext) -> tuple[EtaProduct, Subgroup]:
    """The unit whose square generates the quadratic extension, and its group.

    G when ell = 1, with psi its character on Gamma1; F_1 otherwise, with
    psi*chi (psi when p == 3 mod 4) on Gamma2.
    """
    if ctx.ell == 1:
        return triplet_product(find_triplet(ctx.p), ctx.p), Subgroup.GAMMA1
    return orbit_product(1, ctx), Subgroup.GAMMA2


# -- individual checks -----------------------------------------------------


def verify_shifting(ctx: PrimeContext) -> CheckResult:
    """F_h = F_(-h) = F_(p+h), and F_(g^k h) = -+ F_h per p mod 4.

    Each F_h' is merged from its literal factors E_(g^(jk) h'), h' taken
    as it stands, g^(jk) read off H, and compared with orbit_product(h).
    Decided on the formal eta products: an expansion is a function of
    (level, exponents, sign) alone, so equal products agree at every
    q-power and no series is expanded.
    """
    if ctx.p % 12 == 11:
        return CheckResult("shifting", "skipped", reason="ell=1: F-branch replaced by G-branch")
    e, residues = 6 // ctx.ell, h_residues(ctx)
    flip = -1 if ctx.p % 4 == 1 else 1
    tested = []
    for h in (1, 2, ctx.g):
        base = orbit_product(h, ctx)
        for other, factor in ((-h, 1), (ctx.p + h, 1), (residues[1] * h, flip)):
            factors = [(x * other, e) for x in residues[:ctx.ell]]
            if merge_factors(ctx.p, factors) != (base.exponents, factor * base.sign):
                return CheckResult(
                    "shifting", "fail",
                    reason=f"F_{other} != {factor}*F_{h} as formal eta products",
                )
        tested.append(h % ctx.p)
    return CheckResult(
        "shifting", "pass",
        witness={"h_values": sorted(set(tested)), "gk_sign": flip},
    )


def _law(prod: EtaProduct, m: SL2Matrix, merged: dict) -> tuple[int, dict, int]:
    """(t mod 24N, exponents, sign), prod(m tau) = e^(2*pi*i*t/(24N)) * sign * prod E_g^e(tau),
    on ints, m in Gamma0(N): the literal indices a*g (g under a translation) merged once per
    a mod 2N into merged, since E_(x+N) = -E_x makes the merge a function of a*g mod 2N."""
    a = (m.a if m.c else 1) % (2 * prod.level)
    if a not in merged:
        moved = [(a * g, e) for g, e in prod.exponents.items()]
        merged[a] = merge_factors(prod.level, moved, prod.sign)
    return multiplier_turns(prod.exponents, prod.level, m) % (24 * prod.level), *merged[a]


def class_representatives(ctx: PrimeContext, group: Subgroup) -> list:
    """T^j and section(a, c) T^j, j in {0, 1}, (a, c) in {(1, p), (2, p), (1, 2p)}, 2 read
    as p + 1 on Gamma1: a member of each class, gamma mod 2 and whether c = 0."""
    two = ctx.p + 1 if group is Subgroup.GAMMA1 else 2
    bases = [section(a, c) for a, c in ((1, 0), (1, ctx.p), (two, ctx.p), (1, 2 * ctx.p))]
    return [m * SL2Matrix.translation(j) for m in bases for j in (0, 1)]


def verify_transforms(ctx: PrimeContext, unit: EtaProduct, group: Subgroup) -> CheckResult:
    """The unit's laws on all of its group, decided exactly on eight matrix classes.

    Lemma: if sum e = 6 and p | S2 = sum e g^2, then F_1(gamma tau) = c(gamma) F_a(tau) on
    Gamma0(p), F_a = orbit_product(a), has c*psi a function of gamma mod 2 and of c = 0.
    For c != 0 the turns are 12p*eps12 (psi at (a, bp; c/p, d) == gamma mod 2) plus
    12b(a*S2 - p*S1) (a, b mod 2) mod 24p, and a*g merges to F_a with sign +1; for c = 0,
    2b*order_numerator, the order at 1/0 in 1/2 + Z.  G is alike, G_a = G on Gamma1.  So
    _law at class_representatives and their negatives proves the law on Gamma0 (Gamma1),
    and psi*chi F_1 on Gamma2 follows from F_h = chi(h) F_1, the law at the lifts of the
    2*ell h in H = <g^k> (h_residues), psi*chi from twisted_sign.  As evidence, the E_g law is
    evaluated at g in {1, 2, g mod p} on N_RANDOM seeded Gamma0 draws.
    """
    p, rng, indices = ctx.p, random.Random(DEFAULT_SEED + ctx.p), sorted({1, 2, ctx.g % ctx.p})
    draws = [random_member(ctx, rng) for _ in range(N_RANDOM)]
    worst = max(check_E_transforms(indices, p, m, balanced_samples(m)) for m in draws)
    reps, gamma1 = class_representatives(ctx, group), group is Subgroup.GAMMA1
    matrices = [m for r in reps for m in (r, -r)]
    targets = {a: (unit.exponents, unit.sign) if gamma1 else
               merge_factors(p, orbit_factors(a, ctx))
               for a in {m.a for m in matrices}}  # F_a once per upper-left entry, 4 of them
    laws = [(m, sign_character(m), *targets[m.a]) for m in matrices]
    lifts = [lift_with_upper_left(x, p) for x in h_residues(ctx)]
    laws += [(m, twisted_sign(m, ctx), unit.exponents, unit.sign) for m in lifts]
    merged = {}  # the moved unit once per a mod 2p, about 10 merges for 16 + 2*ell laws
    problems = [f"{unit.label} law fails exactly at {tuple(m)}" for m, factor, want, s in laws
                if _law(unit, m, merged) not in ((0, want, factor * s),
                                                 (12 * p, want, -factor * s))][:1]
    side = (sum(unit.exponents.values()), sum(e * g * g for g, e in unit.exponents.items()) % p,
            len({(m.c == 0, *(x % 2 for x in m)) for m in reps}))
    if side != (6, 0, 8):
        problems.append(f"lemma needs sum e, S2 mod p and classes 6, 0, 8, not {side}")
    problems += [f"max residual {worst:.3e} >= {TOL}"] if worst >= TOL else []
    witness = {"method": "classes", "classes": side[2], "max_residual": worst,
               "matrices": N_RANDOM, "tol": TOL}
    return CheckResult("transformation-law", "fail" if problems else "pass",
                       reason="; ".join(problems) or None, witness=witness)


def verify_invariance(ctx: PrimeContext, unit: EtaProduct, group: Subgroup) -> CheckResult:
    """The squared unit is a rational modular function on its curve.

    (a) the congruence criterion for descending to the curve (invariance
        is the unit's law squared, psi^2 = chi^2 = 1, see verify_transforms),
    (b) odd order at infinity, the sum of e_g times the leading exponent
        of E_g (each E_g leads with 1), so the square root genuinely
        enlarges the function field.
    """
    prod = unit.squared()
    if not is_modular_unit(prod):
        return CheckResult("invariance", "fail", reason="congruence criterion violated")
    # order at infinity: the cusp has width 1
    lead_order = Fraction(order_numerator(prod.exponents, ctx.p, 1, 0), 12 * ctx.p)
    odd_lead = lead_order.denominator == 1 and lead_order.numerator % 2 == 1
    return CheckResult(
        "invariance", "pass" if odd_lead else "fail",
        reason=None if odd_lead else f"order at infinity {lead_order} is not odd",
        witness={"unit": prod.label, "group": group.value, "order_at_infinity": str(lead_order)},
    )


def cusp_orders(ctx: PrimeContext, unit: EtaProduct,
                group: Subgroup) -> tuple[CheckResult, Sequence]:
    """Order of the squared unit at every cusp of its curve.

    order = width * sum_g e_g * delta_g with delta the leading exponent of E_g at the cusp,
    taken in integers as order_numerator / 12p; it must be an odd integer everywhere, equal
    to 1 whenever p does not divide c, and the orders of a unit sum to zero.  The cusps are
    cusp_reps' columns: every 1/r row has width scale*p and order_numerator s0 = sum e, so
    it is decided once; fiber_numerators gives the p | c rows, inf as r = 1.  Floor
    remainders are not negative, so the rows' orders are integers exactly when their sums
    match.  (check, rows): rows a CuspTable, () where an order is no integer; a fail reason
    names each bad row in table order.
    """
    prod = unit.squared()
    try:
        reps, scale = cusp_reps(group, ctx)
    except ArithmeticError as exc:
        return CheckResult("cusp-orders", "fail", reason=str(exc)), ()
    p, big, s0, wide = ctx.p, 12 * ctx.p, sum(prod.exponents.values()), scale * ctx.p
    numerators = fiber_numerators(prod.exponents, p, reps)
    orders = [scale * n // big for n in numerators]
    order, rest = divmod(wide * s0, big)  # the one order of the 1/r rows
    if scale * sum(numerators) != big * sum(orders) or rest:  # the first bad row, or 1/1
        a, c, width, n = next(((r, p if i else 0, scale, n) for i, (r, n)
                               in enumerate(zip(reps, numerators)) if scale * n % big),
                              (1, 1, wide, s0))
        reason = f"non-integer order {Fraction(width * n, big)} at cusp {cusp_name(a, c)}"
        return CheckResult("cusp-orders", "fail", reason=reason + " (width/delta bug)"), ()
    problems = [f"even order {o} at {cusp_name(r, p if i else 0)}"
                for i, (r, o) in enumerate(zip(reps, orders)) if o % 2 == 0]
    for name in (cusp_name(1, r) for r in reps) if order != 1 else ():  # all 1/r rows alike
        problems += [f"even order {order} at {name}"] * (order % 2 == 0)
        problems.append(f"order {order} != 1 at {name} with p not dividing c")
    if sum(orders) + len(reps) * order:
        problems.append("orders do not sum to zero")
    table = CuspTable(reps, orders, p, scale, order)
    if problems:
        return CheckResult("cusp-orders", "fail", reason="; ".join(problems)), table
    witness = {"unit": prod.label, "cusp_count": len(table),
               "width_sum": psl_index(group, ctx), "ramification_index": 2}
    return CheckResult("cusp-orders", "pass", witness=witness), table


def verify_quotient(ctx: PrimeContext) -> CheckResult:
    """The quotient by Gamma2Prime is cyclic of order 2k.

    Decided by quotient_structure from H = <g^k> and the character on a
    handful of matrices, with no loop over residues.
    """
    qs = quotient_structure(ctx)
    ok = (
        qs.character_order == ctx.degree
        and qs.kernel_matches
        and qs.index_gamma0_gamma2 == ctx.k
        and qs.curve_index_gamma2_gamma1 == ctx.ell
    )
    return CheckResult(
        "quotient-structure", "pass" if ok else "fail",
        reason=None if ok else
        f"character order {qs.character_order} (want {ctx.degree}), "
        f"kernel match {qs.kernel_matches}, index {qs.index_gamma0_gamma2} (want {ctx.k}), "
        f"curve index {qs.curve_index_gamma2_gamma1} (want {ctx.ell})",
        witness={key: getattr(qs, key) for key in
                 ("character_order", "index_gamma0_gamma2", "curve_index_gamma2_gamma1")},
    )


def verify_z_relation(ctx: PrimeContext) -> CheckResult:
    """z = +-prod_{j<k} F_(g^j) as formal eta products, sign recorded.

    eta(tau)/eta(p*tau) = q^((1-p)/24) prod_{p does not divide n} (1 - q^n), and the E_r
    with r in [1, (p-1)/2] share out exactly those factors, so z = (eta(tau)/eta(p*tau))^(6/ell)
    is the product of every such E_r to the power 6/ell.  Both sides are q^L prod (1 - q^n)^(a_n)
    in one way only, so the identity holds exactly when the product has those exponents; its
    sign is the sign of the relation, since z and every E_r lead with coefficient 1.  The lead
    is then (6/ell)(1-p)/24: 12p times that of E_r is 6r^2 - 6pr + p^2, summed over
    r <= (p-1)/2 to -p(p-1)/2.

    The F_(g^j) have the factors E_x^(6/ell), x = g^n mod 2p, n < (p-1)/2, walked as
    one running product.  E_x = -E_(x-p) for x > p, so the sign is (-1)^((6/ell) * count),
    count the x above p; E_x reduces to E_r, r = min(x mod p, p - x mod p), marked in a
    bytearray: with (p-1)/2 factors for (p-1)/2 indices, all carry 6/ell exactly when
    all are marked.
    """
    if ctx.p % 8 == 1:
        return CheckResult("z-relation", "skipped", reason="p == 1 mod 8: relation not asserted")
    p, g, e, half = ctx.p, ctx.g, 6 // ctx.ell, (ctx.p - 1) // 2
    marks, x, above, two_p = bytearray(half + 1), 1, 0, 2 * p
    for _ in range(half):
        r = x % p
        above += x > p
        marks[r if 2 * r < p else p - r] = 1
        x = x * g % two_p
    marked = marks.count(1)
    if marked != half:
        return CheckResult("z-relation", "fail", reason="prod F_(g^j) is not +-z as formal eta "
                           f"products ({marked} of {half} indices marked)")
    return CheckResult(
        "z-relation", "pass",
        witness={"sign": (-1) ** (above * e), "method": "formal",
                 "leading_exponent": str(Fraction(e * (1 - p), 24))},
    )


# -- assembly --------------------------------------------------------------


def _context(p: int) -> PrimeContext:
    """prime_context(p), or for p = 2, 3 the recorded data of the degree-2 squaring map."""
    if p in (2, 3):
        return PrimeContext(p, 1 if p == 2 else 5, 1, 0 if p == 2 else 1)
    return prime_context(p)


def _report(ctx: PrimeContext, checks: tuple, cusps: tuple = ()) -> CertReport:
    return CertReport(
        p=ctx.p, g=ctx.g, k=ctx.k, ell=ctx.ell, Np=ctx.k, degree=ctx.degree,
        branch=branch_name(ctx.p), checks=checks, cusps=cusps,
        overall=all(c.status != "fail" for c in checks),
    )


def error_report(p: int, exc: Exception) -> CertReport:
    """Fail report for a prime whose certification raised exc."""
    check = CheckResult("error", "fail", reason=f"{type(exc).__name__}: {exc}")
    return _report(_context(p), (check,))


def certify(p: int) -> CertReport:
    """Run all checks for one prime and assemble the report."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ctx = _context(p)
    if p in (2, 3):  # the covering degenerates to the squaring map: only its degree to record
        kummer = CheckResult("kummer-cover", "pass", witness={"map": "x -> x^2", "degree": 2})
        return _report(ctx, (kummer,))
    unit, group = _certified_unit(ctx)
    order_check, rows = cusp_orders(ctx, unit, group)
    checks = (
        verify_shifting(ctx),
        verify_transforms(ctx, unit, group),
        verify_invariance(ctx, unit, group),
        verify_quotient(ctx),
        order_check,
        verify_z_relation(ctx),
    )
    return _report(ctx, checks, rows)


# -- JSON ------------------------------------------------------------------


def report_to_dict(report: CertReport) -> dict:
    """Key order is CertReport's field order; absent reason/witness are dropped.

    _asdict copies no value, so the witness dicts are shared with the report.
    """
    out = report._asdict()
    out["checks"] = tuple(
        {key: v for key, v in c._asdict().items() if v is not None} for c in report.checks
    )
    out["cusps"] = tuple(row._asdict() for row in report.cusps)
    return out


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for str-keyed dicts, lists and tuples: strings, ints and
    finite floats written directly, other scalars (None, bools, nan, inf) by json.dumps.
    indent is the newline and spaces of the value's own line."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int or type(value) is float and isfinite(value):
        return repr(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [inner + encode_basestring_ascii(key) + ": " + _dumps(v, inner)
                 for key, v in value.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _dumps(v, inner) for v in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    return json.dumps(value)


_ROW = '    {\n      "a": %s,\n      "c": %s,\n      "width": %s,\n      "order": %s\n    }'
ROW_CHUNK = 65536  # cusp rows per piece of report_chunks and of the cusps command


def report_chunks(report: CertReport, indent: str = "\n"):
    """report_to_json's text in pieces, each line after the first begun by indent, a
    CuspTable's rows ROW_CHUNK at a time from its columns, through _ROW with the fixed fields
    filled in once.  Strings are written on one line with their quotes escaped, so only the
    report's own "cusps": [] can follow indent and two spaces."""
    text, cusps = _dumps(report_to_dict(report._replace(cusps=())), indent), report.cusps
    if not cusps:
        yield text
        return
    head, _, tail = text.partition(indent + '  "cusps": []')
    row = _ROW.replace("\n", indent)
    yield f'{head}{indent}  "cusps": [{indent}{row % cusps[0]}'
    row = "," + indent + row
    if not isinstance(cusps, CuspTable):
        yield "".join([row % r for r in cusps[1:]])
    else:
        reps, orders, step = cusps.reps, cusps.orders, ROW_CHUNK
        at_r = row % ("%s", cusps.p, cusps.scale, "%s")
        for i in range(1, len(reps), step):
            yield "".join([at_r % pair for pair in zip(reps[i:i + step], orders[i:i + step])])
        at_1 = row % (1, "%s", cusps.scale * cusps.p, cusps.order)
        for i in range(0, len(reps), step):
            yield "".join([at_1 % r for r in reps[i:i + step]])
    yield f"{indent}  ]{tail}"


def report_to_json(report: CertReport) -> str:
    """json.dumps(report_to_dict(report), indent=2): report_chunks joined."""
    return "".join(report_chunks(report))


def report_from_json(text: str) -> CertReport:
    data = json.loads(text)
    return CertReport(**{
        **data,
        "checks": tuple(CheckResult(**c) for c in data["checks"]),
        "cusps": tuple(CuspRow(**r) for r in data["cusps"]),
    })
