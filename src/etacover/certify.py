"""Per-prime certification of the cyclic covering data.

For each prime p the certifier checks, with exact series where possible
and complex evaluation where the group action moves the expansion point:

  shifting            index shifts of the units F_h (exact series)
  transformation-law  multiplier/character laws under random matrices
  invariance          the squared unit descends to the curve, over Q
  quotient-structure  Gamma0/Gamma2Prime is cyclic of the covering degree
  cusp-orders         odd order at every cusp, order 1 off the p | c fiber
  z-relation          z = +-prod F_{g^j} (primes not 1 mod 8)

The verdict plus the cusp table forms a CertReport, serialized as JSON
with a stable key layout.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .exact import is_prime, prime_context, PrimeContext
from .eta import (
    EtaProduct,
    eta_quotient_series,
    expand_product,
    find_triplet,
    is_modular_unit,
    leading_exponent_at,
    orbit_product,
    triplet_product,
)
from .numeric import (
    balanced_samples,
    check_E_transform,
    check_F_transform,
    check_G_transform,
    eval_product,
)
from .subgroups import Subgroup, cusp_set, quotient_structure, random_member

DEFAULT_SEED = 20260823


@dataclass(frozen=True)
class CertifyConfig:
    h: int = 1            # index of the certified unit F_h
    bound: int = 10       # q-steps past leading for exact comparisons
    tol: float = 1e-8     # numeric residual tolerance
    n_random: int = 20    # random matrices per numeric check
    seed: int = DEFAULT_SEED  # per-prime rngs derive from seed + p
    samples: tuple | None = None  # None: balanced per-matrix sample points


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


def _series_equal(a, b) -> bool:
    """Exact agreement to the shared truncation.

    Both sides carry the same relative precision, so when the leading
    exponents agree this is a full-window comparison; when they differ
    the lower leading term itself witnesses the mismatch.
    """
    return a.agrees_with(b, min(a.trunc, b.trunc))


def branch_name(p: int) -> str:
    if p in (2, 3):
        return "small-p"
    if p % 12 == 11:
        return "G"
    if p % 4 == 1:
        return "F-chi"
    return "F-psi"


def _certified_unit(ctx: PrimeContext, h: int) -> tuple[EtaProduct, Subgroup]:
    """The squared unit generating the quadratic extension, and its group."""
    if ctx.ell == 1:
        return triplet_product(find_triplet(ctx.p), ctx.p).squared(), Subgroup.GAMMA1
    return orbit_product(h, ctx).squared(), Subgroup.GAMMA2


# -- individual checks -----------------------------------------------------


def verify_shifting(ctx: PrimeContext, bound: int = 10) -> CheckResult:
    """F_h = F_(-h) = F_(p+h), and F_(g^k h) = -+ F_h per p mod 4, exactly."""
    if ctx.p % 12 == 11:
        return CheckResult("shifting", "skipped", reason="ell=1: F-branch replaced by G-branch")
    gk = pow(ctx.g, ctx.k, ctx.p)
    flip = -1 if ctx.p % 4 == 1 else 1
    tested = []
    for h in (1, 2, ctx.g):
        base = expand_product(orbit_product(h, ctx), bound)
        for other in (-h, ctx.p + h):
            cand = expand_product(orbit_product(other, ctx), bound)
            if not _series_equal(base, cand):
                return CheckResult(
                    "shifting", "fail",
                    reason=f"F_{h} != F_{other} within {bound} steps",
                )
        moved = expand_product(orbit_product(gk * h, ctx), bound)
        if not _series_equal(moved, base.scale(flip)):
            return CheckResult(
                "shifting", "fail",
                reason=f"F_(g^k*{h}) != {flip}*F_{h} within {bound} steps",
            )
        tested.append(h % ctx.p)
    return CheckResult(
        "shifting", "pass",
        witness={"h_values": sorted(set(tested)), "bound": bound, "gk_sign": flip},
    )


def verify_transforms(
    ctx: PrimeContext,
    h: int = 1,
    tol: float = 1e-8,
    n_random: int = 20,
    seed: int = DEFAULT_SEED,
    samples: tuple | None = None,
) -> CheckResult:
    """Numeric transformation laws under random small matrices.

    With samples=None each matrix is tested at points matched to its own
    scale, which keeps the truncated products accurate for large p.
    """
    rng = random.Random(seed + ctx.p)
    worst = 0.0
    indices = sorted({1, 2, ctx.g % ctx.p})
    trip = find_triplet(ctx.p) if ctx.ell == 1 else None
    for _ in range(n_random):
        m0 = random_member(Subgroup.GAMMA0, ctx, rng)
        pts0 = samples or balanced_samples(m0)
        for g in indices:
            worst = max(worst, check_E_transform(g, ctx.p, m0, pts0))
        if ctx.ell == 1:
            m1 = random_member(Subgroup.GAMMA1, ctx, rng)
            pts1 = samples or balanced_samples(m1)
            worst = max(worst, check_G_transform(ctx.p, trip, m1, pts1))
        else:
            worst = max(worst, check_F_transform(ctx, h, m0, pts0))
            m2 = random_member(Subgroup.GAMMA2, ctx, rng)
            pts2 = samples or balanced_samples(m2)
            worst = max(worst, check_F_transform(ctx, h, m2, pts2))
    status = "pass" if worst < tol else "fail"
    return CheckResult(
        "transformation-law", status,
        reason=None if status == "pass" else f"max residual {worst:.3e} >= {tol}",
        witness={"max_residual": worst, "matrices": n_random, "tol": tol},
    )


def verify_invariance(
    ctx: PrimeContext,
    samples: tuple | None = None,
    tol: float = 1e-8,
    h: int = 1,
    bound: int = 10,
    n_random: int = 20,
    seed: int = DEFAULT_SEED,
) -> CheckResult:
    """The squared unit is a rational modular function on its curve.

    (a) the congruence criterion for descending to the curve,
    (b) numeric invariance under random group elements,
    (c) rational coefficients plus odd order at infinity (the square
        root genuinely enlarges the function field).
    """
    prod, group = _certified_unit(ctx, h)
    if not is_modular_unit(prod):
        return CheckResult("invariance", "fail", reason="congruence criterion violated")
    rng = random.Random(seed + 2 * ctx.p + 1)
    worst = 0.0
    for _ in range(n_random):
        m = random_member(group, ctx, rng)
        for tau in samples or balanced_samples(m):
            z = tau.as_complex()
            lhs = eval_product(prod, m.apply(z))
            rhs = eval_product(prod, z)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    series = expand_product(prod, bound)
    lead_order = series.leading()[0]  # order at infinity: the cusp has width 1
    odd_lead = lead_order.denominator == 1 and int(lead_order) % 2 == 1
    status = "pass" if worst < tol and odd_lead else "fail"
    return CheckResult(
        "invariance", status,
        reason=None if status == "pass" else
        f"residual {worst:.3e} (tol {tol}), odd leading order: {odd_lead}",
        witness={
            "unit": prod.label,
            "group": group.value,
            "max_residual": worst,
            "rational_terms_checked": len(series.coeffs),
            "order_at_infinity": str(lead_order),
        },
    )


def cusp_orders(ctx: PrimeContext, h: int = 1) -> tuple[CheckResult, tuple]:
    """Order of the squared unit at every cusp of its curve.

    order = width * sum_g e_g * delta_g with delta the leading exponent
    of E_g at the cusp; it must be an odd integer everywhere, equal to 1
    whenever p does not divide c, and the orders of a unit sum to zero.
    """
    prod, group = _certified_unit(ctx, h)
    try:
        table = cusp_set(group, ctx)
    except ArithmeticError as exc:
        return CheckResult("cusp-orders", "fail", reason=str(exc)), ()
    rows = []
    problems = []
    for cusp, width in table:
        sec = cusp.section()
        total = sum(
            e * leading_exponent_at(g, ctx.p, sec) for g, e in prod.exponents.items()
        )
        order = width * total
        if order.denominator != 1:
            return (
                CheckResult(
                    "cusp-orders", "fail",
                    reason=f"non-integer order {order} at cusp {cusp} (width/delta bug)",
                ),
                (),
            )
        order = int(order)
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
    """The quotient by Gamma2Prime is cyclic of order 2k, by enumeration."""
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
            "cyclic": qs.is_cyclic,
        },
    )


def verify_z_relation(ctx: PrimeContext, bound: int = 10) -> CheckResult:
    """z = +-prod_{j<k} F_(g^j) as exact series, sign recorded."""
    if ctx.p % 8 == 1:
        return CheckResult(
            "z-relation", "skipped", reason="p == 1 mod 8: relation not asserted"
        )
    z = eta_quotient_series(ctx, bound)
    prod = None
    for j in range(ctx.k):
        f = expand_product(orbit_product(pow(ctx.g, j, ctx.p), ctx), bound)
        prod = f if prod is None else prod * f
    for sign in (1, -1):
        if _series_equal(z, prod.scale(sign)):
            return CheckResult(
                "z-relation", "pass",
                witness={"sign": sign, "bound": bound,
                         "leading_exponent": str(z.leading()[0])},
            )
    return CheckResult(
        "z-relation", "fail",
        reason=f"neither sign matches within {bound} steps",
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


def certify(p: int, config: CertifyConfig | None = None) -> CertReport:
    """Run all checks for one prime and assemble the report."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p in (2, 3):
        return _small_prime_report(p)
    cfg = config or CertifyConfig()
    ctx = prime_context(p)
    order_check, rows = cusp_orders(ctx, cfg.h)
    checks = (
        verify_shifting(ctx, cfg.bound),
        verify_transforms(
            ctx, h=cfg.h, tol=cfg.tol, n_random=cfg.n_random,
            seed=cfg.seed, samples=cfg.samples,
        ),
        verify_invariance(
            ctx, samples=cfg.samples, tol=cfg.tol, h=cfg.h,
            bound=cfg.bound, n_random=cfg.n_random, seed=cfg.seed,
        ),
        verify_quotient(ctx),
        order_check,
        verify_z_relation(ctx, cfg.bound),
    )
    return CertReport(
        p=p, g=ctx.g, k=ctx.k, ell=ctx.ell, Np=ctx.k, degree=ctx.degree,
        branch=branch_name(p), checks=checks, cusps=rows,
        overall=all(c.status != "fail" for c in checks),
    )


# -- JSON ------------------------------------------------------------------


def report_to_dict(report: CertReport) -> dict:
    checks = []
    for c in report.checks:
        item = {"name": c.name, "status": c.status}
        if c.reason is not None:
            item["reason"] = c.reason
        if c.witness is not None:
            item["witness"] = c.witness
        checks.append(item)
    return {
        "p": report.p,
        "g": report.g,
        "k": report.k,
        "ell": report.ell,
        "Np": report.Np,
        "degree": report.degree,
        "branch": report.branch,
        "checks": checks,
        "cusps": [
            {"a": r.a, "c": r.c, "width": r.width, "order": r.order}
            for r in report.cusps
        ],
        "overall": report.overall,
    }


def report_to_json(report: CertReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def report_from_dict(data: dict) -> CertReport:
    checks = tuple(
        CheckResult(
            name=c["name"], status=c["status"],
            reason=c.get("reason"), witness=c.get("witness"),
        )
        for c in data["checks"]
    )
    cusps = tuple(
        CuspRow(a=r["a"], c=r["c"], width=r["width"], order=r["order"])
        for r in data["cusps"]
    )
    return CertReport(
        p=data["p"], g=data["g"], k=data["k"], ell=data["ell"],
        Np=data["Np"], degree=data["degree"], branch=data["branch"],
        checks=checks, cusps=cusps, overall=data["overall"],
    )


def report_from_json(text: str) -> CertReport:
    return report_from_dict(json.loads(text))
