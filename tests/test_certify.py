"""Certifier checks, report assembly, and JSON serialization."""

import dataclasses
import json
import sys
import types
from fractions import Fraction

import pytest

import etacover.subgroups
from etacover.certify import (
    _certified_unit,
    branch_name,
    certify,
    cusp_orders,
    report_from_json,
    report_to_dict,
    report_to_json,
    verify_invariance,
    verify_quotient,
    verify_shifting,
    verify_transforms,
    verify_z_relation,
)
from etacover.eta import eta_quotient_series, expand_product, orbit_product, order_numerator
from etacover.exact import RootOfUnity, is_prime, prime_context
from etacover.qseries import QSeries
from etacover.subgroups import Cusp, dlog, sign_character
from oracles import leading_exponent_at


def series_z_relation(ctx, products, bound):
    """(sign, leading exponent) with z = sign * prod(products) to bound
    q-steps past leading, or None: the z-relation's former series check."""
    z = eta_quotient_series(ctx, bound)
    series = None
    for f in products:
        s = expand_product(f, bound)
        series = s if series is None else series * s
    upto = min(z.trunc, series.trunc)
    for sign in (1, -1):
        if z.agrees_with(series.scale(sign), upto):
            return sign, str(z.leading()[0])
    return None


def z_factors(ctx, unit=orbit_product):
    return [unit(pow(ctx.g, j, ctx.p), ctx) for j in range(ctx.k)]


def force_residual(monkeypatch):
    """Every E_g residual reads 1.0, far above the tolerance."""
    monkeypatch.setattr("etacover.certify.check_E_transform", lambda *args: 1.0)


CHECK_ORDER = [
    "shifting",
    "transformation-law",
    "invariance",
    "quotient-structure",
    "cusp-orders",
    "z-relation",
]


def test_branch_name_frozen():
    assert branch_name(2) == "small-p"
    assert branch_name(3) == "small-p"
    assert branch_name(5) == "F-chi"
    assert branch_name(7) == "F-psi"
    assert branch_name(11) == "G"
    assert branch_name(13) == "F-chi"
    assert branch_name(19) == "F-psi"
    assert branch_name(23) == "G"
    assert branch_name(29) == "F-chi"
    assert branch_name(47) == "G"


def test_certify_rejects_composites():
    for n in (1, 4, 6, 91):
        with pytest.raises(ValueError):
            certify(n)


def test_small_prime_reports():
    r2 = certify(2)
    assert (r2.p, r2.g, r2.k, r2.ell, r2.Np) == (2, 1, 1, 0, 1)
    assert r2.degree == 2 and r2.branch == "small-p"
    assert len(r2.checks) == 1 and r2.checks[0].name == "kummer-cover"
    assert r2.checks[0].witness == {"map": "x -> x^2", "degree": 2}
    assert r2.cusps == () and r2.overall

    r3 = certify(3)
    assert (r3.g, r3.ell) == (5, 1)
    assert r3.branch == "small-p" and r3.overall


def test_certify_13_full_pass():
    r = certify(13)
    assert (r.g, r.k, r.ell, r.Np, r.degree) == (15, 1, 6, 1, 2)
    assert r.branch == "F-chi"
    assert [c.name for c in r.checks] == CHECK_ORDER
    assert all(c.status == "pass" for c in r.checks)
    assert r.overall
    # a single exact relation pins the sign convention: g^k acts by -1 here
    assert r.checks[0].witness["gk_sign"] == -1


def test_certify_11_uses_G_branch():
    r = certify(11)
    assert r.branch == "G" and r.degree == 10
    by_name = {c.name: c for c in r.checks}
    assert by_name["shifting"].status == "skipped"
    assert "G-branch" in by_name["shifting"].reason
    assert by_name["transformation-law"].status == "pass"
    assert by_name["invariance"].witness["unit"] == "(G_(1,1,3))^2"
    assert by_name["invariance"].witness["group"] == "Gamma1"
    assert len(r.cusps) == 10
    assert r.overall


def test_certify_17_skips_z_relation():
    r = certify(17)
    by_name = {c.name: c for c in r.checks}
    assert by_name["z-relation"].status == "skipped"
    assert by_name["z-relation"].reason == "p == 1 mod 8: relation not asserted"
    assert r.overall  # a skip is not a failure


def test_shifting_direct():
    assert verify_shifting(prime_context(11)).status == "skipped"
    r7 = verify_shifting(prime_context(7))
    assert r7.status == "pass"
    assert r7.witness == {"h_values": [1, 2, 3], "gk_sign": 1}
    r13 = verify_shifting(prime_context(13))
    assert r13.witness["h_values"] == [1, 2]  # g = 15 folds onto 2 mod 13
    assert r13.witness["gk_sign"] == -1


def test_shifting_fails_on_wrong_sign(monkeypatch):
    ctx = prime_context(13)
    gk = pow(ctx.g, ctx.k, ctx.p)

    def wrong_sign(h, c):
        prod = orbit_product(h, c)
        return dataclasses.replace(prod, sign=-prod.sign) if h == gk else prod

    monkeypatch.setattr("etacover.certify.orbit_product", wrong_sign)
    res = verify_shifting(ctx)
    assert res.status == "fail"
    assert res.reason == f"F_{gk} != -1*F_1 as formal eta products"


def test_shifting_and_invariance_expand_no_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("a series was expanded")

    for name in ("expand_product", "eta_quotient_series"):
        monkeypatch.setattr(f"etacover.certify.{name}", refuse, raising=False)
    monkeypatch.setattr(QSeries, "__mul__", refuse)
    ctx = prime_context(13)
    assert verify_shifting(ctx).status == "pass"
    assert verify_invariance(ctx).status == "pass"
    for p in (5, 7, 11, 13, 17, 101):
        assert certify(p).overall, p


def test_formal_order_at_infinity_matches_expansion():
    for p in range(5, 101):
        if not is_prime(p):
            continue
        ctx = prime_context(p)
        prod = _certified_unit(ctx)[0].squared()
        witness = verify_invariance(ctx).witness
        assert witness["order_at_infinity"] == str(expand_product(prod, 1).leading()[0]), p


def test_large_primes_certify():
    # evaluating the unit as a value overflowed or drifted past tol at
    # 509..2003; at 101, 149 and 173 the pole of z has order above 10, so
    # a 10-step series comparison never reached q^0
    for p in (101, 149, 173, 509, 547, 1031, 2003):
        report = certify(p)
        assert report.overall, p
        if p in (101, 149, 173, 2003):
            z = next(c for c in report.checks if c.name == "z-relation")
            assert (z.status, z.witness["method"]) == ("pass", "formal"), p


def test_transforms_pass_where_the_moebius_quotient_cancelled():
    # (a tau + b)/(c tau + d) lost digits near -d/c, and the E_g residual
    # crossed tol at 670 of the primes 5..10000, the first being 2347
    for p in (2347, 3119, 6101):
        res = verify_transforms(prime_context(p))
        assert res.status == "pass", (p, res.reason)


def test_negated_psi_fails_the_exact_law(monkeypatch):
    monkeypatch.setattr("etacover.certify.sign_character", lambda m: -sign_character(m))
    for p in (13, 11):  # the F law, and the G law
        res = verify_transforms(prime_context(p))
        assert res.status == "fail", p
        assert "law fails exactly" in res.reason, p


def test_certify_evaluates_no_eta_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("eval_product called")

    monkeypatch.setattr("etacover.numeric.eval_product", refuse)
    for p in (7, 11, 13):
        assert certify(p).overall, p


def test_z_relation_signs():
    assert verify_z_relation(prime_context(5)).witness["sign"] == -1
    assert verify_z_relation(prime_context(7)).witness["sign"] == 1
    assert verify_z_relation(prime_context(29)).witness["sign"] == -1
    assert verify_z_relation(prime_context(17)).status == "skipped"


def test_z_relation_matches_series_comparison():
    for p in range(5, 201):
        if not is_prime(p) or p % 8 == 1:
            continue
        ctx = prime_context(p)
        w = verify_z_relation(ctx).witness
        assert (w["sign"], w["leading_exponent"]) == series_z_relation(ctx, z_factors(ctx), 10), p


def test_z_relation_fails_on_a_unit_wrong_past_ten_steps(monkeypatch):
    # 2*(+1, -3, +3, -1) on indices 20..23 is a third difference: sum e,
    # sum e*g and sum e*g^2, hence the leading exponent, do not move, and
    # the first changed coefficient sits 20 steps past leading
    ctx = prime_context(101)
    delta = {20: 2, 21: -6, 22: 6, 23: -2}

    def wrong_unit(h, c):
        prod = orbit_product(h, c)
        if h != 1:
            return prod
        exps = {g: prod.exponents.get(g, 0) + delta.get(g, 0) for g in {*prod.exponents, *delta}}
        return dataclasses.replace(prod, exponents={g: e for g, e in exps.items() if e})

    wrong = z_factors(ctx, wrong_unit)
    assert series_z_relation(ctx, wrong, 10) == series_z_relation(ctx, z_factors(ctx), 10)
    assert series_z_relation(ctx, wrong, 30) is None
    monkeypatch.setattr("etacover.certify.orbit_product", wrong_unit)
    assert verify_z_relation(ctx).status == "fail"


def test_integer_cusp_orders_match_reference():
    # order_numerator against the Fraction formula through a section matrix
    for p in filter(is_prime, range(5, 301)):
        ctx = prime_context(p)
        prod = _certified_unit(ctx)[0].squared()
        check, rows = cusp_orders(ctx)
        assert check.status == "pass" and rows, p
        for row in rows:
            sec = Cusp(row.a, row.c).section()
            ref = sum(e * leading_exponent_at(g, p, sec) for g, e in prod.exponents.items())
            assert Fraction(order_numerator(prod.exponents, p, row.a, row.c), 12 * p) == ref
            assert row.order == row.width * ref, (p, row)


def test_cusp_orders_build_no_section(monkeypatch):
    def refuse(self):
        raise AssertionError("Cusp.section called")

    monkeypatch.setattr(Cusp, "section", refuse)
    for p in (5, 7, 11, 13, 101, 1009):
        assert cusp_orders(prime_context(p))[0].status == "pass", p


def test_wrong_quotient_character_fails(monkeypatch):
    def without_psi(ctx, m):
        order = ctx.k if ctx.ell % 2 else 2 * ctx.k
        return RootOfUnity(order, dlog(ctx, m.a))

    def zeta_of_order_k(ctx, m):
        return RootOfUnity(ctx.k, dlog(ctx, m.a)) * RootOfUnity.from_sign(sign_character(m))

    for p in (11, 13, 17):
        assert verify_quotient(prime_context(p)).status == "pass", p
    for mutant, primes in ((without_psi, (11, 13)), (zeta_of_order_k, (13, 17))):
        monkeypatch.setattr(etacover.subgroups, "quotient_character", mutant)
        for p in primes:
            assert verify_quotient(prime_context(p)).status == "fail", (mutant.__name__, p)


def test_cusp_orders_direct():
    check, rows = cusp_orders(prime_context(7))
    assert check.status == "pass"
    assert check.witness["ramification_index"] == 2
    assert all(r.order % 2 == 1 for r in rows)
    assert all(r.order == 1 for r in rows if r.c % 7 != 0)
    assert sum(r.order for r in rows) == 0


def test_unreachable_tolerance_fails_loudly(monkeypatch):
    force_residual(monkeypatch)
    r = verify_transforms(prime_context(5))
    assert r.status == "fail"
    assert "max residual" in r.reason
    report = certify(5)
    assert not report.overall


def test_json_roundtrip_and_key_order(monkeypatch):
    r = certify(5)
    reps = [r, certify(2)]
    force_residual(monkeypatch)
    reps.append(certify(5))
    assert not reps[-1].overall
    for rep in reps:
        assert report_from_json(report_to_json(rep)) == rep
    keys = list(json.loads(report_to_json(r)).keys())
    assert keys == ["p", "g", "k", "ell", "Np", "degree", "branch",
                    "checks", "cusps", "overall"]


def test_reason_omitted_when_absent():
    d = report_to_dict(certify(2))
    assert "reason" not in d["checks"][0]
    assert "witness" in d["checks"][0]


def test_certify_is_deterministic():
    assert report_to_json(certify(7)) == report_to_json(certify(7))


def test_certify_module_is_not_shadowed_by_the_function(monkeypatch):
    assert isinstance(etacover.certify, types.ModuleType)
    assert "certify" not in etacover.__all__
    sentinel = object()
    monkeypatch.setattr("etacover.certify.orbit_product", sentinel)
    assert sys.modules["etacover.certify"].orbit_product is sentinel


def test_dlog_table_keeps_one_prime():
    etacover.subgroups._dlog_table.cache_clear()
    certify(13)
    certify(11)
    assert etacover.subgroups._dlog_table.cache_info().currsize == 1
