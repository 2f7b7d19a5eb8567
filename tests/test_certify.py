"""Certifier checks, report assembly, and JSON serialization."""

import inspect
import json
import random
import sys
import types
from itertools import product
from math import gcd, inf, nan

import pytest
from hypothesis import given, settings, strategies as st

import etacover.certify
import etacover.numeric
import etacover.subgroups
from etacover.certify import (
    DEFAULT_SEED,
    N_RANDOM,
    CheckResult,
    CuspRow,
    _certified_unit,
    _law,
    branch_name,
    certify,
    class_representatives,
    cusp_orders,
    error_report,
    report_from_json,
    report_to_dict,
    report_to_json,
    verify_invariance,
    verify_quotient,
    verify_shifting,
    verify_transforms,
    verify_z_relation,
)
from etacover.eta import (
    EtaProduct,
    eta_quotient_series,
    expand_product,
    find_triplet,
    merge_factors,
    orbit_factors,
    orbit_product,
    order_numerator,
)
from etacover.exact import is_prime, prime_context
from etacover.qseries import QSeries
from etacover.subgroups import (
    SL2Matrix,
    Subgroup,
    epsilon_factor,
    h_residues,
    is_member,
    lift_with_upper_left,
    random_member,
    section,
    sign_character,
    twisted_sign,
)
from oracles import (
    character_modulus,
    dumps_report,
    leading_exponent_at,
    literal_orbit_factors,
    literal_z_factors,
    random_group_member,
    transform_product,
    turns,
    unit_law_by_class,
)


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
    monkeypatch.setattr("etacover.certify.check_E_transforms", lambda *args: 1.0)


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
        return prod._replace(sign=-prod.sign) if h == gk else prod

    monkeypatch.setattr("etacover.certify.orbit_product", wrong_sign)
    res = verify_shifting(ctx)
    assert res.status == "fail"
    assert res.reason == f"F_-{gk} != 1*F_{gk} as formal eta products"


def test_shifting_fails_on_negated_units(monkeypatch):
    # the shifted units are built from their literal factors, so a unit
    # with the wrong sign no longer passes by being compared with itself
    def negated(h, c):
        prod = orbit_product(h, c)
        return EtaProduct(c.p, *merge_factors(c.p, prod.exponents.items(), -prod.sign), prod.label)

    monkeypatch.setattr("etacover.certify.orbit_product", negated)
    for p in filter(is_prime, range(5, 60)):
        if p % 12 != 11:
            assert verify_shifting(prime_context(p)).status == "fail", p


def test_shifting_and_invariance_expand_no_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("a series was expanded")

    for name in ("expand_product", "eta_quotient_series"):
        monkeypatch.setattr(f"etacover.certify.{name}", refuse, raising=False)
    monkeypatch.setattr(QSeries, "__mul__", refuse)
    ctx = prime_context(13)
    assert verify_shifting(ctx).status == "pass"
    assert verify_invariance(ctx, *_certified_unit(ctx)).status == "pass"
    for p in (5, 7, 11, 13, 17, 101):
        assert certify(p).overall, p


def test_formal_order_at_infinity_matches_expansion():
    for p in range(5, 101):
        if not is_prime(p):
            continue
        ctx = prime_context(p)
        unit, group = _certified_unit(ctx)
        witness = verify_invariance(ctx, unit, group).witness
        prod = unit.squared()
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
        ctx = prime_context(p)
        res = verify_transforms(ctx, *_certified_unit(ctx))
        assert res.status == "pass", (p, res.reason)


@pytest.mark.parametrize("p", [1433, 10007, 100003])
def test_transforms_residual_stays_small_at_large_primes(p):
    # a fifth of the draws are translations, where E_1 at height 1
    # underflows from p = 1433; the residual still compares real values
    ctx = prime_context(p)
    res = verify_transforms(ctx, *_certified_unit(ctx))
    assert res.status == "pass" and res.witness["max_residual"] < 1e-10, (p, res.witness)


def test_negated_psi_fails_the_exact_law(monkeypatch):
    monkeypatch.setattr("etacover.certify.sign_character", lambda m: -sign_character(m))
    for p in (13, 11):  # the F law, and the G law
        ctx = prime_context(p)
        res = verify_transforms(ctx, *_certified_unit(ctx))
        assert res.status == "fail", p
        assert "law fails exactly" in res.reason, p


def test_negated_twisted_sign_fails_the_gamma2_law_and_the_quotient(monkeypatch):
    # psi*chi is spelled once, in twisted_sign: the unit's law on Gamma2 and
    # Gamma2Prime membership both read it, while log_character does not
    def negated(m, ctx):
        return -twisted_sign(m, ctx)

    monkeypatch.setattr(etacover.certify, "twisted_sign", negated)
    monkeypatch.setattr(etacover.subgroups, "twisted_sign", negated)
    for p in filter(is_prime, range(5, 200)):
        ctx = prime_context(p)
        unit, group = _certified_unit(ctx)
        if group is Subgroup.GAMMA2:  # the G law on Gamma1 reads psi alone
            res = verify_transforms(ctx, unit, group)
            assert res.status == "fail" and "law fails exactly" in res.reason, p
        assert verify_quotient(ctx).status == "fail", p


def test_certify_evaluates_no_eta_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("eval_product called")

    monkeypatch.setattr("etacover.numeric.eval_product", refuse)
    for p in (7, 11, 13):
        assert certify(p).overall, p


def law_matrices(ctx, group):
    """verify_transforms' Gamma0 draws, its one RNG stream, then as many draws
    from the unit's group off a separate rng, the class representatives and
    the lifts of H = <g^k> with their negatives, and +-T^b."""
    rng = random.Random(DEFAULT_SEED + ctx.p)
    yield from (random_member(ctx, rng) for _ in range(N_RANDOM))
    rng = random.Random(f"{group.value} {DEFAULT_SEED + ctx.p}")
    yield from (random_group_member(group, ctx, rng) for _ in range(N_RANDOM))
    for x in h_residues(ctx):
        yield lift_with_upper_left(x, ctx.p)
    for m in class_representatives(ctx, group):
        yield m
        yield -m
    for b in range(-3, 4):
        yield SL2Matrix.translation(b)
        yield -SL2Matrix.translation(b)


def test_law_matrices_replay_the_gamma0_stream(monkeypatch):
    # the E_g residual is evaluated on law_matrices' first N_RANDOM matrices,
    # in their order, and no other matrix is drawn
    seen, draws = [], []
    batched, drawing = etacover.certify.check_E_transforms, etacover.certify.random_member

    def counting(indices, level, gamma, samples):
        seen.append(gamma)
        return batched(indices, level, gamma, samples)

    def recording(ctx, rng):
        draws.append(drawing(ctx, rng))
        return draws[-1]

    monkeypatch.setattr("etacover.certify.check_E_transforms", counting)
    monkeypatch.setattr("etacover.certify.random_member", recording)
    for p in (5, 11, 13, 101, 1009):
        ctx = prime_context(p)
        unit, group = _certified_unit(ctx)
        seen.clear()
        draws.clear()
        assert verify_transforms(ctx, unit, group).status == "pass", p
        assert seen == list(law_matrices(ctx, group))[:N_RANDOM], p
        assert draws == seen, p


@pytest.mark.parametrize("primes", [range(5, 500), (10007,)], ids=["below-500", "10007"])
def test_int_law_matches_the_factor_by_factor_oracle(primes):
    # the exact law on ints against transform_product, which composes each
    # factor's eta_multiplier turns and builds the moved EtaProduct; one memo
    # of merges per prime, as in verify_transforms
    for p in filter(is_prime, primes):
        ctx = prime_context(p)
        unit, group = _certified_unit(ctx)
        merged = {}
        for m in law_matrices(ctx, group):
            t, exponents, sign = _law(unit, m, merged)
            root, moved = transform_product(unit, m)
            assert turns(t, 24 * p) == root, (p, tuple(m))
            assert (exponents, sign) == (moved.exponents, moved.sign), (p, tuple(m))


def source_mutant(module, name, old, new):
    """module.name recompiled from its source with old replaced by new."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


LAW_MUTANTS = {
    "drop a*sum e g^2": ("multiplier_turns", "(m.a * s2 - level * s1)", "(-level * s1)"),
    "drop N*sum e g": ("multiplier_turns", "(m.a * s2 - level * s1)", "(m.a * s2)"),
    "flip the moved sign": ("_law", "moved, prod.sign)", "moved, -prod.sign)"),
    "epsilon12 + 1": None,
}


@pytest.mark.parametrize("name", LAW_MUTANTS)
def test_law_mutations_fail_below_200(monkeypatch, name):
    if LAW_MUTANTS[name] is None:
        twelfths = etacover.subgroups.epsilon_factor
        monkeypatch.setattr(etacover.subgroups, "epsilon_factor", lambda *m: twelfths(*m) + 1)
    else:
        func, old, new = LAW_MUTANTS[name]
        module = etacover.subgroups if func == "multiplier_turns" else etacover.certify
        monkeypatch.setattr(etacover.certify, func, source_mutant(module, func, old, new))
    for p in filter(is_prime, range(5, 200)):
        ctx = prime_context(p)
        res = verify_transforms(ctx, *_certified_unit(ctx))
        if res.status == "fail":
            assert "law fails exactly" in res.reason, (name, p)
            return
    pytest.fail(f"{name} passes every prime below 200")


def test_law_targets_are_merged_once_per_upper_left_entry(monkeypatch):
    # the 16 class matrices have 4 upper-left entries (+-1, +-2), so F_a is
    # merged at most 4 times on the F branch and never on the G branch
    calls = []

    def counted(h, ctx):
        calls.append(h)
        return orbit_factors(h, ctx)

    monkeypatch.setattr(etacover.certify, "orbit_factors", counted)
    for p in (5, 7, 11, 13, 17, 19, 23, 10007):
        ctx = prime_context(p)
        calls.clear()
        assert verify_transforms(ctx, *_certified_unit(ctx)).status == "pass", p
        assert len(calls) == len(set(calls)) <= (0 if p % 12 == 11 else 4), (p, calls)


def test_shared_work_is_read_once_per_draw_and_per_upper_left_entry(monkeypatch):
    # eps12 once per non-translation draw for all of its indices, and the
    # moved unit merged once per a mod 2p, not once per law matrix
    twelfths, batched = etacover.subgroups.epsilon_factor, etacover.certify.check_E_transforms
    eps, draws, moved = [], [], []

    def counted_eps(*m):
        eps.append(m)
        return twelfths(*m)

    def counted_draw(indices, level, gamma, samples):
        before = len(eps)
        worst = batched(indices, level, gamma, samples)
        draws.append((gamma.c != 0, len(eps) - before))
        return worst

    def counted_merge(level, factors, *sign):
        if sign:  # the targets F_a are merged without one
            moved.append(factors)
        return merge_factors(level, factors, *sign)

    monkeypatch.setattr(etacover.subgroups, "epsilon_factor", counted_eps)
    monkeypatch.setattr(etacover.numeric, "epsilon_factor", counted_eps, raising=False)
    monkeypatch.setattr(etacover.certify, "check_E_transforms", counted_draw)
    monkeypatch.setattr(etacover.certify, "merge_factors", counted_merge)
    for p in (5, 7, 11, 13, 17, 19, 23, 101, 10007):
        ctx = prime_context(p)
        unit, group = _certified_unit(ctx)
        laws = [m for r in class_representatives(ctx, group) for m in (r, -r)]
        laws += [lift_with_upper_left(x, p) for x in h_residues(ctx)]
        entries = {(m.a if m.c else 1) % (2 * p) for m in laws}
        draws.clear()
        moved.clear()
        assert verify_transforms(ctx, unit, group).status == "pass", p
        assert len(draws) == N_RANDOM and any(moving for moving, _ in draws), p
        assert all(n <= moving for moving, n in draws), (p, draws)
        assert len(moved) <= len(entries) < len(laws), (p, len(moved), entries)


def test_an_overflowing_E_g_law_fails(monkeypatch):
    # an infinite factor puts a side out of the double range, and the
    # relative error is nan there; it must fail as an infinite residual,
    # not fold to 0 and pass
    reduce = etacover.numeric.reduce_index
    monkeypatch.setattr(etacover.numeric, "reduce_index",
                        lambda g, level: (reduce(g, level)[0], inf))
    for p in (13, 23):
        ctx = prime_context(p)
        res = verify_transforms(ctx, *_certified_unit(ctx))
        assert res.status == "fail" and res.witness["max_residual"] == inf, p
        assert res.reason == "max residual inf >= 1e-08", p


SL2_Z2 = [m for m in product((0, 1), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 2]
CLASSES = {(False, *m) for m in SL2_Z2} | {(True, 1, 0, 0, 1), (True, 1, 1, 0, 1)}


def test_representatives_cover_the_eight_classes():
    # the six classes of SL2(Z/2) with c != 0, and T^0, T^1: in Gamma0, and in
    # Gamma1 for the G law
    assert len(CLASSES) == 8
    for p in filter(is_prime, range(5, 2000)):
        ctx = prime_context(p)
        for group, home in ((Subgroup.GAMMA1, Subgroup.GAMMA1), (Subgroup.GAMMA2, Subgroup.GAMMA0)):
            reps = class_representatives(ctx, group)
            assert sorted((m.c == 0, *(x % 2 for x in m)) for m in reps) == sorted(CLASSES), p
            assert all(is_member(m, home, ctx) for m in reps), (p, group)


def test_unit_law_is_constant_on_each_fibre_over_sl2_z2():
    # the lemma of verify_transforms: with F_1(gamma tau) = c(gamma) F_a(tau),
    # c*psi depends only on gamma mod 2 (and on whether c = 0) on all 6(p-1)
    # classes of (Z/p)^* x SL2(Z/2), G alike with G_a; the one value is the
    # law's, 0
    for p in filter(is_prime, range(5, 201)):
        ctx = prime_context(p)
        unit, group = _certified_unit(ctx)
        factors = ([(h, 2) for h in find_triplet(p)] if group is Subgroup.GAMMA1
                   else literal_orbit_factors(1, ctx))
        assert EtaProduct.from_factors(p, factors, unit.label) == unit, p
        by_class = unit_law_by_class(unit, factors, ctx)
        assert len(by_class) == 8 and all(len(f) == 1 for f in by_class.values()), (p, by_class)
        assert set().union(*by_class.values()) == {0}, p


def _dropping(j):
    def representatives(ctx, group):
        reps = class_representatives(ctx, group)
        return reps[:j] + reps[j + 1:]
    return representatives


CLASS_MUTANTS = {  # a negated psi: test_negated_psi_fails_the_exact_law
    "epsilon12 + 3": ("etacover.subgroups.epsilon_factor", lambda *m: epsilon_factor(*m) + 3),
    **{f"drop representative {j}": ("etacover.certify.class_representatives", _dropping(j))
       for j in range(8)},
}


@pytest.mark.parametrize("name", CLASS_MUTANTS)
def test_class_mutations_fail_below_200(monkeypatch, name):
    monkeypatch.setattr(*CLASS_MUTANTS[name])
    for p in filter(is_prime, range(5, 200)):
        ctx = prime_context(p)
        if verify_transforms(ctx, *_certified_unit(ctx)).status == "fail":
            return
    pytest.fail(f"{name} passes every prime below 200")


def test_a_unit_outside_the_lemma_fails():
    # E_1^6 has sum e = 6 and S2 = 6, prime to p: the classes do not decide
    # its law, and the check says so at every prime
    for p in filter(is_prime, range(5, 200)):
        ctx, unit = prime_context(p), EtaProduct(p, {1: 6}, 1, "E_1^6")
        for group in (Subgroup.GAMMA1, Subgroup.GAMMA2):
            res = verify_transforms(ctx, unit, group)
            assert res.status == "fail" and "lemma needs" in res.reason, (p, group)


def test_draws_build_no_eta_product(monkeypatch):
    # per drawn matrix the law is ints only: the from_factors calls of
    # verify_transforms do not grow with the number of draws
    calls = []
    from_factors = EtaProduct.from_factors.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return from_factors(cls, *args, **kwargs)

    monkeypatch.setattr(EtaProduct, "from_factors", classmethod(counting))
    for p in (11, 13, 19, 101):
        ctx, per_run = prime_context(p), []
        unit, group = _certified_unit(ctx)
        for n in (1, 20):
            monkeypatch.setattr("etacover.certify.N_RANDOM", n)
            calls.clear()
            assert verify_transforms(ctx, unit, group).status == "pass", (p, n)
            per_run.append(len(calls))
        assert per_run[0] == per_run[1], (p, per_run)


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


def test_z_relation_sign_is_the_literal_merge():
    # the walk's sign against the merge of every F_(g^j)'s factors as written
    for p in filter(is_prime, range(5, 2000)):
        if p % 8 == 1:
            continue
        ctx = prime_context(p)
        literal = EtaProduct.from_factors(p, literal_z_factors(ctx), "literal")
        assert verify_z_relation(ctx).witness["sign"] == literal.sign, p


def test_z_relation_fails_on_a_unit_wrong_past_ten_steps():
    # 2*(+1, -3, +3, -1) on indices 20..23 is a third difference: sum e,
    # sum e*g and sum e*g^2, hence the leading exponent, do not move, and
    # the first changed coefficient sits 20 steps past leading
    ctx = prime_context(101)
    delta = {20: 2, 21: -6, 22: 6, 23: -2}

    def wrong_factors(h, c):
        return literal_orbit_factors(h, c) + (list(delta.items()) if h == 1 else [])

    def wrong_unit(h, c):
        return EtaProduct.from_factors(c.p, wrong_factors(h, c), f"F_{h}")

    wrong = z_factors(ctx, wrong_unit)
    assert series_z_relation(ctx, wrong, 10) == series_z_relation(ctx, z_factors(ctx), 10)
    assert series_z_relation(ctx, wrong, 30) is None
    # the formal check walks g^n mod 2p, n < 50, and needs each index 1..50
    # marked once: g^2, of order 50, folds twice onto 25 of them
    assert verify_z_relation(ctx).status == "pass"
    assert verify_z_relation(ctx._replace(g=ctx.g * ctx.g % 202)).status == "fail"


def test_integer_cusp_orders_match_reference():
    # order_numerator against the Fraction formula through a section matrix,
    # at every row below 2000: cusp_orders takes sum e once off the fiber,
    # and this recomputes each row.  The formula reads a section through a
    # and d = gcd(c, p) alone, and P2 has period 1, so a value is kept per
    # (g, d, a*g mod d), as 12p times the value, which must be an integer
    for p in filter(is_prime, range(5, 2000)):
        ctx = prime_context(p)
        unit, group = _certified_unit(ctx)
        prod = unit.squared()
        check, rows = cusp_orders(ctx, unit, group)
        assert check.status == "pass" and rows, p
        lead = {}
        for row in rows:
            sec = section(row.a, row.c)
            d, ref = gcd(row.c, p), 0
            for g, e in prod.exponents.items():
                key = (g, d, sec.a * g % d)
                if key not in lead:
                    value = 12 * p * leading_exponent_at(g, p, sec)
                    assert value.denominator == 1, (p, row, g)
                    lead[key] = value.numerator
                ref += e * lead[key]
            assert order_numerator(prod.exponents, p, row.a, row.c) == ref, (p, row)
            assert 12 * p * row.order == row.width * ref, (p, row)
        # the witness's width sum, proved by cusp_set, and count against the returned rows
        assert check.witness["width_sum"] == sum(row.width for row in rows), p
        assert check.witness["cusp_count"] == len(rows), p


def test_cusp_orders_build_no_section(monkeypatch):
    # the cusp table stays (a, c, width) ints from cusp_set to the report:
    # cusp_orders builds no matrix, a section least of all, and a passing
    # run names no row.  quotient_structure takes sections on purpose,
    # through lift_with_upper_left, so the refusals are scoped
    def refuse(*args):
        raise AssertionError("a section was taken or a cusp named")

    with monkeypatch.context() as patch:
        patch.setattr(etacover.subgroups, "section", refuse)
        patch.setattr(SL2Matrix, "__new__", refuse)
        for p in (5, 7, 11, 13, 101, 1009):
            ctx = prime_context(p)
            assert cusp_orders(ctx, *_certified_unit(ctx))[0].status == "pass", p
    monkeypatch.setattr(etacover.certify, "cusp_name", refuse)
    for p in (5, 11, 13, 101, 1009, 10007):
        assert certify(p).overall, p


@pytest.mark.parametrize("p, scans", [(11, 1), (13, 0), (10007, 1)])
def test_certify_derives_the_unit_once(monkeypatch, p, scans):
    # certify derives the unit once and passes it to the three checks that
    # read it; on the G branch (p == 11 mod 12) that is one triplet scan
    calls = {"_certified_unit": 0, "find_triplet": 0}
    for name in calls:
        original = getattr(etacover.certify, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(etacover.certify, name, counting)
    assert certify(p).overall
    assert calls == {"_certified_unit": 1, "find_triplet": scans}


@pytest.mark.parametrize("p", [5, 7, 11, 13, 47, 101, 1009, 10007])
def test_order_numerator_only_at_the_p_divides_c_rows(monkeypatch, p):
    # the z-relation reads its lead off the exponents and takes no sum at
    # all; cusp_orders asks fiber_numerators once, for the rows with p | c
    # (infinity, as r = 1, and the r/p rows), gets order_numerator's value
    # at each, and reads sum e everywhere else
    calls, asked = [], []
    original, fiber = etacover.certify.order_numerator, etacover.certify.fiber_numerators

    def counting(exponents, N, a, c):
        calls.append(c)
        return original(exponents, N, a, c)

    def asking(exponents, N, reps):
        asked.append([(r, N if i else 0) for i, r in enumerate(reps)])
        values = fiber(exponents, N, reps)
        assert values == [original(exponents, N, a, c) for a, c in asked[-1]], N
        return values

    monkeypatch.setattr(etacover.certify, "order_numerator", counting)
    monkeypatch.setattr(etacover.certify, "fiber_numerators", asking)
    ctx = prime_context(p)
    verify_z_relation(ctx)
    assert calls == [] == asked, p
    check, rows = cusp_orders(ctx, *_certified_unit(ctx))
    assert check.status == "pass" and calls == [], p
    assert asked == [[(row.a, row.c) for row in rows if row.c % p == 0]], p


def cusp_orders_check(p):
    return next(c for c in certify(p).checks if c.name == "cusp-orders")


def mutate_order_numerator(monkeypatch, at, change):
    """order_numerator(e, N, a, c) at the p | c rows, as fiber_numerators gives it, replaced
    by change(N, value) at the rows where at(N, c): c = 0 at infinity (r = 1), N at r/N."""
    original = etacover.certify.fiber_numerators

    def mutant(exponents, N, reps):
        values = original(exponents, N, reps)
        return [change(N, v) if at(N, N if i else 0) else v for i, v in enumerate(values)]

    monkeypatch.setattr(etacover.certify, "fiber_numerators", mutant)


NUMERATOR_MUTANTS = {
    "even order at inf": (13, lambda N, c: c == 0, lambda N, v: 24 * N,
                          "even order 2 at inf; orders do not sum to zero"),
    "even order at r/p": (11, lambda N, c: c == N, lambda N, v: 24 * N,
                          "even order 2 at 2/11; even order 2 at 3/11; even order 2 at 4/11; "
                          "even order 2 at 5/11; orders do not sum to zero"),
    "non-integer order": (13, lambda N, c: c == 0, lambda N, v: v + 1,
                          "non-integer order -155/156 at cusp inf (width/delta bug)"),
    "orders sum to 2": (17, lambda N, c: c == 0, lambda N, v: v + 24 * N,
                        "orders do not sum to zero"),
}


@pytest.mark.parametrize("name", NUMERATOR_MUTANTS)
def test_cusp_orders_fail_on_a_wrong_order(monkeypatch, name):
    # each failure names its row as cusp_name does: inf, r/p, 1/r
    p, at, change, reason = NUMERATOR_MUTANTS[name]
    mutate_order_numerator(monkeypatch, at, change)
    check = cusp_orders_check(p)
    assert (check.status, check.reason) == ("fail", reason)


SHARED_MUTANTS = {  # the 1/r rows, decided once: a wrong shared width, a wrong shared order
    "width scale": (13, "wide = ctx.p, 12 * ctx.p, sum(prod.exponents.values()), scale * ctx.p",
                    "wide = ctx.p, 12 * ctx.p, sum(prod.exponents.values()), scale",
                    "non-integer order 1/13 at cusp 1/1 (width/delta bug)"),
    "order 2": (37, "divmod(wide * s0, big)", "divmod(wide * s0 + big, big)",
                "; ".join(f"even order 2 at 1/{r}; order 2 != 1 at 1/{r} with p not dividing c"
                          for r in (1, 2, 3)) + "; orders do not sum to zero"),
    "order 3": (13, "divmod(wide * s0, big)", "divmod(wide * s0 + 2 * big, big)",
                "order 3 != 1 at 1/1 with p not dividing c; orders do not sum to zero"),
}


@pytest.mark.parametrize("name", SHARED_MUTANTS)
def test_cusp_orders_fail_on_a_wrong_shared_row(monkeypatch, name):
    p, old, new, reason = SHARED_MUTANTS[name]
    mutant = source_mutant(etacover.certify, "cusp_orders", old, new)
    monkeypatch.setattr(etacover.certify, "cusp_orders", mutant)
    check = cusp_orders_check(p)
    assert (check.status, check.reason) == ("fail", reason)


def test_cusp_orders_fail_on_a_wrong_sum_of_exponents(monkeypatch):
    # the unit times (eta(tau)/eta(p tau))^2: sum e grows by p - 1, so the
    # order off the p | c fiber, read off sum e, is no longer 1
    certified_unit = etacover.certify._certified_unit

    def times_eta_quotient(ctx):
        unit, group = certified_unit(ctx)
        extra = [(r, 2) for r in range(1, (ctx.p + 1) // 2)]
        factors = [*unit.exponents.items(), *extra]
        return EtaProduct(ctx.p, *merge_factors(ctx.p, factors, unit.sign), unit.label), group

    monkeypatch.setattr(etacover.certify, "_certified_unit", times_eta_quotient)
    check = cusp_orders_check(13)
    assert (check.status, check.reason) == ("fail", "order 3 != 1 at 1/1 with p not dividing c")
    check = cusp_orders_check(37)
    reasons = [f"order 7 != 1 at 1/{r} with p not dividing c" for r in (1, 2, 3)]
    assert (check.status, check.reason) == ("fail", "; ".join(reasons))


def test_wrong_quotient_character_fails(monkeypatch):
    # characters as t mod M, M = character_modulus(ctx): zeta^n is 2n, psi = -1 is M/2,
    # taken at members whose upper-left entry is g^n mod p, n known
    def without_psi(ctx, n, m):
        return 2 * n % character_modulus(ctx)

    def zeta_of_order_k(ctx, n, m):
        big = character_modulus(ctx)
        return (big // ctx.k * n + (0 if sign_character(m) == 1 else big // 2)) % big

    for p in (11, 13, 17):
        assert verify_quotient(prime_context(p)).status == "pass", p
    for mutant, primes in ((without_psi, (11, 13)), (zeta_of_order_k, (13, 17))):
        monkeypatch.setattr(etacover.subgroups, "log_character", mutant)
        for p in primes:
            assert verify_quotient(prime_context(p)).status == "fail", (mutant.__name__, p)


def test_quotient_index_counts_distinct_residues():
    # g^2 in place of a generator: h_residues still lists 2*ell powers, but only
    # half of them are distinct, so Gamma0/Gamma2 shows index 2k and the check
    # fails; the reason names both indices with what they should be
    ctx = prime_context(13)
    bad = ctx._replace(g=ctx.g * ctx.g % (2 * ctx.p))
    assert verify_quotient(ctx).witness["index_gamma0_gamma2"] == ctx.k == 1
    res = verify_quotient(bad)
    assert res.status == "fail" and res.witness["index_gamma0_gamma2"] == 2 != bad.k
    assert res.witness["curve_index_gamma2_gamma1"] == 3 != bad.ell
    assert res.reason.endswith("index 2 (want 1), curve index 3 (want 6)")


def test_cusp_orders_direct():
    ctx = prime_context(7)
    check, rows = cusp_orders(ctx, *_certified_unit(ctx))
    assert check.status == "pass"
    assert check.witness["ramification_index"] == 2
    assert all(r.order % 2 == 1 for r in rows)
    assert all(r.order == 1 for r in rows if r.c % 7 != 0)
    assert sum(r.order for r in rows) == 0


def test_unreachable_tolerance_fails_loudly(monkeypatch):
    force_residual(monkeypatch)
    ctx = prime_context(5)
    r = verify_transforms(ctx, *_certified_unit(ctx))
    assert r.status == "fail"
    assert "max residual" in r.reason
    report = certify(5)
    assert not report.overall


def test_one_residual_call_per_draw(monkeypatch):
    # every index of a drawn matrix is checked in one call
    calls = []
    batched = etacover.certify.check_E_transforms

    def counting(indices, level, gamma, samples):
        calls.append(tuple(indices))
        return batched(indices, level, gamma, samples)

    monkeypatch.setattr("etacover.certify.check_E_transforms", counting)
    for p in (5, 11, 13, 101, 1009):
        ctx = prime_context(p)
        calls.clear()
        assert verify_transforms(ctx, *_certified_unit(ctx)).status == "pass"
        assert calls == [tuple(sorted({1, 2, ctx.g % p}))] * N_RANDOM


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


def test_report_writer_matches_json_dumps():
    # the cusp rows are written directly, everything else by json.dumps;
    # strings that look like the rows' anchor stay one escaped line
    odd = '"cusps": [],\n  "cusps": [] \\ "quoted" \u00e9\u03c4\u2013\U0001d70f'
    reports = [certify(p) for p in filter(is_prime, range(2, 2000))]
    reports.append(error_report(13, ValueError(odd)))
    check = CheckResult("odd", "fail", reason=odd, witness={"cusps": [], odd: odd})
    for r in (reports[3], reports[0]):
        reports.append(r._replace(checks=(check, *r.checks)))
    assert not reports[0].cusps and not reports[1].cusps
    for r in reports:
        assert report_to_json(r) == json.dumps(report_to_dict(r), indent=2), r.p


ODD_TEXT = ['say "hi"', "back\\slash", "two\nlines", "bell\x07 tab\t nul\x00 del\x7f",
            "\u00e9\u03c4\u2013\U0001d70f \ud800", '"cusps": [],\n  "cusps": []']


def test_report_bytes_match_the_json_dumps_oracle():
    # the recorded primes, error reasons that json escapes, and the floats
    # that have JSON spellings of their own
    reports = [certify(p) for p in filter(is_prime, range(2, 101))]
    reports += [error_report(13, ValueError(text)) for text in ODD_TEXT]
    r13 = certify(13)
    for x in (nan, inf, -inf, -0.0, 1e-300, 5e-324):
        checks = tuple(c._replace(witness={**c.witness, "max_residual": x})
                       if c.name == "transformation-law" else c for c in r13.checks)
        reports.append(r13._replace(checks=checks))
    for r in reports:
        assert report_to_json(r) == dumps_report(r), r


WITNESS_VALUES = st.one_of(
    st.integers(), st.floats(), st.text(), st.booleans(), st.none(),
    st.lists(st.integers()), st.lists(st.integers(), max_size=0),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), WITNESS_VALUES), st.one_of(st.none(), st.text()))
def test_witness_bytes_match_the_json_dumps_oracle(witness, reason):
    base = error_report(7, ValueError("base"))
    check = CheckResult("odd", "pass", reason=reason, witness=witness)
    for cusps in ((), (CuspRow(1, 7, 1, 1), CuspRow(0, 1, 7, -3))):
        r = base._replace(checks=(check, *base.checks), cusps=cusps)
        assert report_to_json(r) == dumps_report(r)


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
