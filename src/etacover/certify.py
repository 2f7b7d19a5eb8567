"""Per-prime certification of the cyclic covering data.

For each prime p the certifier checks, with formal eta products and exact
multipliers, and complex evaluation of E_g alone:

  shifting            index shifts of the units F_h (formal products)
  transformation-law  the unit's character laws under random matrices
                      (exact multipliers; E_g residuals as numeric evidence)
  invariance          congruence criterion and odd order at infinity
  quotient-structure  Gamma0/Gamma2Prime is cyclic of the covering degree
  cusp-orders         odd order at every cusp, order 1 off the p | c fiber
  z-relation          z = +-prod F_{g^j} as formal eta products
                      (primes not 1 mod 8)

The verdict plus the cusp table forms a CertReport, serialized as JSON
with a stable key layout.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from .exact import is_prime, prime_context, PrimeContext, RootOfUnity
from .eta import (
    EtaProduct,
    find_triplet,
    is_modular_unit,
    order_numerator,
    orbit_product,
    transform_product,
    triplet_product,
)
from .numeric import balanced_samples, check_E_transform
from .subgroups import (
    Subgroup,
    cusp_set,
    quadratic_character,
    quotient_structure,
    random_member,
    sign_character,
)

DEFAULT_SEED = 20260823
TOL = 1e-8        # E_g residual tolerance
N_RANDOM = 20     # random matrices per transformation-law check


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    reason: str | None = None
    witness: dict | None = None


@dataclass(frozen=True)
class CuspRow:
    a: int
    c: int
    width: int
    order: int


@dataclass(frozen=True)
class CertReport:
    p: int
    g: int
    k: int
    ell: int
    Np: int
    degree: int
    branch: str
    checks: tuple
    cusps: tuple
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

    Decided on the formal eta products: an expansion is a function of
    (level, exponents, sign) alone, so equal products agree at every
    q-power and no series is expanded.
    """
    if ctx.p % 12 == 11:
        return CheckResult("shifting", "skipped", reason="ell=1: F-branch replaced by G-branch")
    gk = pow(ctx.g, ctx.k, ctx.p)
    flip = -1 if ctx.p % 4 == 1 else 1
    tested = []
    for h in (1, 2, ctx.g):
        base = orbit_product(h, ctx)
        for other, factor in ((-h, 1), (ctx.p + h, 1), (gk * h, flip)):
            cand = orbit_product(other, ctx)
            if (cand.exponents, cand.sign) != (base.exponents, factor * base.sign):
                return CheckResult(
                    "shifting", "fail",
                    reason=f"F_{other} != {factor}*F_{h} as formal eta products",
                )
        tested.append(h % ctx.p)
    return CheckResult(
        "shifting", "pass",
        witness={"h_values": sorted(set(tested)), "gk_sign": flip},
    )


def verify_transforms(ctx: PrimeContext) -> CheckResult:
    """Transformation laws of the unit under random small matrices.

    The unit's laws are decided exactly by transform_product: F_1 goes to
    psi F_a on Gamma0 and to psi*chi F_1 on Gamma2 (psi F_1 when
    p == 3 mod 4), G to psi G on Gamma1.  They rest on the E_g multiplier,
    the one numeric input: E_g at g in {1, 2, g mod p} is evaluated on the
    Gamma0 matrices, at points matched to each matrix's scale.
    """
    rng = random.Random(DEFAULT_SEED + ctx.p)
    worst = 0.0
    failed = []
    indices = sorted({1, 2, ctx.g % ctx.p})
    unit, group = _certified_unit(ctx)
    for _ in range(N_RANDOM):
        m0 = random_member(Subgroup.GAMMA0, ctx, rng)
        pts0 = balanced_samples(m0)
        for g in indices:
            worst = max(worst, check_E_transform(g, ctx.p, m0, pts0))
        m1 = random_member(group, ctx, rng)
        if group is Subgroup.GAMMA1:
            laws = [(m1, sign_character(m1), unit)]
        else:
            chi = quadratic_character(m1, ctx) if ctx.ell % 2 == 0 else 1
            laws = [(m0, sign_character(m0), orbit_product(m0.a, ctx)),
                    (m1, sign_character(m1) * chi, unit)]
        for m, factor, target in laws:
            root, moved = transform_product(unit, m)
            want = RootOfUnity.from_sign(factor * moved.sign * target.sign)
            if (root, moved.exponents) != (want, target.exponents):
                failed.append(m.entries())
    problems = [f"{unit.label} law fails exactly at {m}" for m in failed[:1]]
    problems += [f"max residual {worst:.3e} >= {TOL}"] if worst >= TOL else []
    return CheckResult(
        "transformation-law", "fail" if problems else "pass",
        reason="; ".join(problems) or None,
        witness={"max_residual": worst, "matrices": N_RANDOM, "tol": TOL},
    )


def verify_invariance(ctx: PrimeContext) -> CheckResult:
    """The squared unit is a rational modular function on its curve.

    (a) the congruence criterion for descending to the curve (invariance
        is the unit's law squared, psi^2 = chi^2 = 1, see verify_transforms),
    (b) odd order at infinity, the sum of e_g times the leading exponent
        of E_g (each E_g leads with 1), so the square root genuinely
        enlarges the function field.
    """
    unit, group = _certified_unit(ctx)
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


def cusp_orders(ctx: PrimeContext) -> tuple[CheckResult, tuple]:
    """Order of the squared unit at every cusp of its curve.

    order = width * sum_g e_g * delta_g with delta the leading exponent
    of E_g at the cusp, taken in integers as order_numerator / 12p; it
    must be an odd integer everywhere, equal to 1 whenever p does not
    divide c, and the orders of a unit sum to zero.
    """
    unit, group = _certified_unit(ctx)
    prod = unit.squared()
    try:
        table = cusp_set(group, ctx)
    except ArithmeticError as exc:
        return CheckResult("cusp-orders", "fail", reason=str(exc)), ()
    rows = []
    problems = []
    for cusp, width in table:
        scaled = width * order_numerator(prod.exponents, ctx.p, cusp.a, cusp.c)
        order, rest = divmod(scaled, 12 * ctx.p)
        if rest:
            return (
                CheckResult(
                    "cusp-orders", "fail",
                    reason=f"non-integer order {Fraction(scaled, 12 * ctx.p)} "
                    f"at cusp {cusp} (width/delta bug)",
                ),
                (),
            )
        if order % 2 == 0:
            problems.append(f"even order {order} at {cusp}")
        if cusp.c % ctx.p != 0 and order != 1:
            problems.append(f"order {order} != 1 at {cusp} with p not dividing c")
        rows.append(CuspRow(a=cusp.a, c=cusp.c, width=width, order=order))
    if sum(r.order for r in rows) != 0:
        problems.append("orders do not sum to zero")
    if problems:
        return CheckResult("cusp-orders", "fail", reason="; ".join(problems)), tuple(rows)
    return (
        CheckResult(
            "cusp-orders", "pass",
            witness={
                "unit": prod.label,
                "cusp_count": len(rows),
                "width_sum": sum(r.width for r in rows),
                "ramification_index": 2,
            },
        ),
        tuple(rows),
    )


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
        f"kernel match {qs.kernel_matches}",
        witness={
            "character_order": qs.character_order,
            "index_gamma0_gamma2": qs.index_gamma0_gamma2,
            "curve_index_gamma2_gamma1": qs.curve_index_gamma2_gamma1,
        },
    )


def verify_z_relation(ctx: PrimeContext) -> CheckResult:
    """z = +-prod_{j<k} F_(g^j) as formal eta products, sign recorded.

    eta(tau)/eta(p*tau) = q^((1-p)/24) prod_{p does not divide n} (1 - q^n),
    and the E_r with r in [1, (p-1)/2] share out exactly those factors, so
    z = (eta(tau)/eta(p*tau))^(6/ell) is the product of every such E_r to
    the power 6/ell.  Both sides are q^L prod (1 - q^n)^(a_n) in one way
    only, so the identity holds exactly when the merged product has those
    exponents and the leading exponent (6/ell)(1-p)/24; its sign is the
    sign of the relation, since z and every E_r lead with coefficient 1.
    """
    if ctx.p % 8 == 1:
        return CheckResult(
            "z-relation", "skipped", reason="p == 1 mod 8: relation not asserted"
        )
    e = 6 // ctx.ell
    units = [orbit_product(pow(ctx.g, j, ctx.p), ctx) for j in range(ctx.k)]
    prod = EtaProduct.from_factors(
        ctx.p, [item for f in units for item in f.exponents.items()], "prod F_(g^j)",
        sign=math.prod(f.sign for f in units),
    )
    lead = Fraction(order_numerator(prod.exponents, ctx.p, 1, 0), 12 * ctx.p)
    want = {r: e for r in range(1, (ctx.p - 1) // 2 + 1)}
    if prod.exponents != want or 24 * lead != e * (1 - ctx.p):
        return CheckResult(
            "z-relation", "fail",
            reason=f"prod F_(g^j) is not +-z as formal eta products (leading exponent {lead})",
        )
    return CheckResult(
        "z-relation", "pass",
        witness={"sign": prod.sign, "method": "formal", "leading_exponent": str(lead)},
    )


# -- assembly --------------------------------------------------------------


def _small_prime_report(p: int) -> CertReport:
    # the covering degenerates to the squaring map on the multiplicative
    # group; nothing to verify beyond recording the degree
    g = 1 if p == 2 else 5
    ell = 0 if p == 2 else 1
    check = CheckResult(
        "kummer-cover", "pass", witness={"map": "x -> x^2", "degree": 2}
    )
    return CertReport(
        p=p, g=g, k=1, ell=ell, Np=1, degree=2, branch="small-p",
        checks=(check,), cusps=(), overall=True,
    )


def _report(ctx: PrimeContext, checks: tuple, cusps: tuple = ()) -> CertReport:
    return CertReport(
        p=ctx.p, g=ctx.g, k=ctx.k, ell=ctx.ell, Np=ctx.k, degree=ctx.degree,
        branch=branch_name(ctx.p), checks=checks, cusps=cusps,
        overall=all(c.status != "fail" for c in checks),
    )


def error_report(p: int, exc: Exception) -> CertReport:
    """Fail report for a prime whose certification raised exc."""
    check = CheckResult("error", "fail", reason=f"{type(exc).__name__}: {exc}")
    return _report(prime_context(p), (check,))


def certify(p: int) -> CertReport:
    """Run all checks for one prime and assemble the report."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p in (2, 3):
        return _small_prime_report(p)
    ctx = prime_context(p)
    order_check, rows = cusp_orders(ctx)
    checks = (
        verify_shifting(ctx),
        verify_transforms(ctx),
        verify_invariance(ctx),
        verify_quotient(ctx),
        order_check,
        verify_z_relation(ctx),
    )
    return _report(ctx, checks, rows)


# -- JSON ------------------------------------------------------------------


def report_to_dict(report: CertReport) -> dict:
    """Key order is CertReport's field order; absent reason/witness are dropped."""
    return asdict(report, dict_factory=lambda items: {k: v for k, v in items if v is not None})


def report_to_json(report: CertReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def report_from_dict(data: dict) -> CertReport:
    return CertReport(**{
        **data,
        "checks": tuple(CheckResult(**c) for c in data["checks"]),
        "cusps": tuple(CuspRow(**r) for r in data["cusps"]),
    })


def report_from_json(text: str) -> CertReport:
    return report_from_dict(json.loads(text))
