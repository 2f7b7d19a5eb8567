"""Acceptance gate: the eight headline properties, one verdict line each.

Each test prints a single [PASS]/[FAIL] line through the capture so the
verdicts are visible in any pytest run, then asserts.
"""

import random
from math import gcd

from etacover.certify import (
    _certified_unit,
    certify,
    cusp_orders,
    verify_shifting,
    verify_z_relation,
)
from etacover.eta import (
    eta_quotient_series,
    expand_product,
    find_triplet,
    generalized_eta,
    is_modular_unit,
    orbit_product,
    triplet_product,
)
from etacover.exact import is_prime, prime_context
from etacover.numeric import (
    DEFAULT_SAMPLES,
    balanced_samples,
    check_E_transform,
    check_F_transform,
    check_G_transform,
    eval_classical_eta,
    eval_generalized_eta,
    eval_product,
    eval_series,
)
from etacover.subgroups import Subgroup, quotient_structure, random_member

from oracles import brute_eta_expansion, random_group_member

PRIMES_5_100 = [p for p in range(5, 101) if is_prime(p)]
TRANSFORM_PRIMES = (5, 7, 13, 17, 19, 29, 37)
SEED = 20260823


def _verdict(capsys, num: int, label: str, ok: bool):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_shifting_identities(capsys):
    bad = []
    n = 0
    for p in PRIMES_5_100:
        if p % 12 == 11:
            continue
        n += 1
        res = verify_shifting(prime_context(p))
        if res.status != "pass":
            bad.append((p, res.reason))
    _verdict(capsys, 1,
             f"F-unit shifting identities as formal eta products for {n} primes "
             f"(failures: {bad or 'none'})", not bad and n == 17)


def test_criterion_2_transformation_laws(capsys):
    worst = 0.0
    for p in TRANSFORM_PRIMES:
        ctx = prime_context(p)
        rng = random.Random(SEED + p)
        indices = sorted({1, 2, ctx.g % p})
        for _ in range(20):
            m0 = random_member(ctx, rng)
            for g in indices:
                worst = max(worst, check_E_transform(g, p, m0, DEFAULT_SAMPLES))
            worst = max(worst, check_F_transform(ctx, 1, m0, DEFAULT_SAMPLES))
            # membership in Gamma2 triggers the psi*chi fixed-index form
            m2 = random_group_member(Subgroup.GAMMA2, ctx, rng)
            worst = max(worst, check_F_transform(ctx, 1, m2, DEFAULT_SAMPLES))
    _verdict(capsys, 2,
             f"E/F transformation laws, max residual {worst:.2e} < 1e-8 "
             f"over {len(TRANSFORM_PRIMES)} primes, 20 matrices per group",
             worst < 1e-8)


def test_criterion_3_odd_cusp_orders(capsys):
    bad = []
    rows_seen = 0
    for p in PRIMES_5_100:
        ctx = prime_context(p)
        check, rows = cusp_orders(ctx, *_certified_unit(ctx))
        if check.status != "pass":
            bad.append((p, check.reason))
            continue
        rows_seen += len(rows)
        for r in rows:
            if r.order % 2 == 0:
                bad.append((p, f"even order at {r.a}/{r.c}"))
            if r.c % p != 0 and r.order != 1:
                bad.append((p, f"order {r.order} off the p | c fiber"))
    _verdict(capsys, 3,
             f"odd cusp orders for the squared unit, order 1 off p | c, "
             f"{rows_seen} cusps over {len(PRIMES_5_100)} primes "
             f"(failures: {bad or 'none'})", not bad)


def test_criterion_4_quotient_structure(capsys):
    bad = []
    for p in PRIMES_5_100:
        ctx = prime_context(p)
        Np = (p - 1) // gcd(p - 1, 12)
        qs = quotient_structure(ctx)
        if not (qs.character_order == 2 * Np == ctx.degree and qs.kernel_matches):
            bad.append((p, qs.character_order))
            continue
        rep = certify(p)
        if rep.degree != 2 * Np or rep.Np != Np:
            bad.append((p, rep.degree))
    _verdict(capsys, 4,
             f"quotient image cyclic of order 2k and report degree 2*Np for "
             f"{len(PRIMES_5_100)} primes (failures: {bad or 'none'})", not bad)


def test_criterion_5_z_relation(capsys):
    bad = []
    minus = []
    n = 0
    for p in PRIMES_5_100:
        if p > 50 or p % 8 == 1:
            continue
        n += 1
        res = verify_z_relation(prime_context(p))
        if res.status != "pass" or res.witness["sign"] not in (1, -1):
            bad.append((p, res.reason))
        elif res.witness["sign"] == -1:
            minus.append(p)
    ok = not bad and minus == [5, 29, 37]
    _verdict(capsys, 5,
             f"z equals a signed product of F units for {n} primes, "
             f"minus sign at {minus}", ok)


def test_criterion_6_G_branch(capsys):
    problems = []
    worst = 0.0
    for p in (11, 23, 47, 59):
        ctx = prime_context(p)
        trip = find_triplet(p)
        if sum(h * h for h in trip) % p != 0:
            problems.append((p, "triplet"))
        if not is_modular_unit(triplet_product(trip, p).squared()):
            problems.append((p, "modularity"))
        rng = random.Random(SEED + p)
        for _ in range(10):
            m = random_group_member(Subgroup.GAMMA1, ctx, rng)
            worst = max(worst, check_G_transform(p, trip, m, balanced_samples(m)))
        check, rows = cusp_orders(ctx, *_certified_unit(ctx))
        if check.status != "pass" or any(r.order % 2 == 0 for r in rows):
            problems.append((p, "cusp orders"))
    ok = not problems and worst < 1e-8
    _verdict(capsys, 6,
             f"G-branch triplets, modularity, law residual {worst:.2e} < 1e-8, "
             f"odd cusp orders for p in (11, 23, 47, 59)", ok)


def test_criterion_7_oracle_equivalence(capsys):
    pairs = 0
    bad = []
    for level in range(2, 31):
        for g in range(1, level):
            pairs += 1
            denom, want = brute_eta_expansion(g, level, 20)
            s = generalized_eta(g, level, 20)
            if s.denom != denom or dict(s.coeffs) != want:
                bad.append((level, g))
    _verdict(capsys, 7,
             f"exact expansions equal the independent product oracle for "
             f"{pairs} (level, index) pairs to 20 steps "
             f"(failures: {bad or 'none'})", not bad and pairs == 435)


def test_criterion_8_cross_backend(capsys):
    worst = 0.0
    for p in (5, 7, 11, 13, 17, 19, 29, 37):
        ctx = prime_context(p)
        for g in (1, 2):
            series = generalized_eta(g, p, 20)
            for tau in DEFAULT_SAMPLES:
                worst = max(worst, _rel(eval_series(series, tau),
                                        eval_generalized_eta(g, p, tau)))
        f1 = orbit_product(1, ctx)
        series = expand_product(f1, 40)
        for tau in DEFAULT_SAMPLES:
            worst = max(worst, _rel(eval_series(series, tau), eval_product(f1, tau)))
        if p % 12 == 11:
            gp = triplet_product(find_triplet(p), p)
            series = expand_product(gp, 40)
            for tau in DEFAULT_SAMPLES:
                worst = max(worst, _rel(eval_series(series, tau), eval_product(gp, tau)))
        series = eta_quotient_series(ctx, 40)
        power = 6 // ctx.ell
        for tau in DEFAULT_SAMPLES:
            direct = (eval_classical_eta(1, tau) / eval_classical_eta(p, tau)) ** power
            worst = max(worst, _rel(eval_series(series, tau), direct))
    _verdict(capsys, 8,
             f"exact series and complex products agree, max relative "
             f"difference {worst:.2e} < 1e-10 at 4 sample points", worst < 1e-10)
