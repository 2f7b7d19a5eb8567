"""Two exact identities the E_g multiplier must satisfy, independently of its spelling.

- The product identity: E_1 ... E_((p-1)/2) is eta(tau)/eta(p tau), whose
  multiplier under Gamma0(p) follows from Rademacher's eta multiplier.
- The cocycle: the law of m1 m2 is the law of m1 followed by that of m2.

Both run on the matrix golden's draws and on random Gamma0(p) matrices up
to p = 10007, and each catches a mutation of the multiplier that the other
may miss: negating the phase keeps the product identity, since the sum of
r^2 over r <= (p-1)/2 is divisible by p.
"""

import json
import random
from pathlib import Path

import pytest

from etacover.exact import prime_context
from etacover.subgroups import (
    SL2Matrix,
    eta_multiplier,
    multiplier_turns,
    random_member,
)
from oracles import cocycle_holds, eta_quotient_multiplier, product_identity_holds, turns

GOLDEN = Path(__file__).parent / "data" / "matrix_golden.json"


def golden_draws() -> dict:
    """p -> the golden's draws of every group at p, all in Gamma0(p)."""
    out = {}
    for key, mats in json.loads(GOLDEN.read_text())["draws"].items():
        out.setdefault(int(key.split("/")[0]), []).extend(SL2Matrix(*e) for e in mats)
    return out


def random_gamma0(p: int, count: int, seed: int) -> list:
    """random_member draws, and wider matrices with c = p*c0, |c0| <= 6."""
    ctx, rng = prime_context(p), random.Random(seed + p)
    mats = [random_member(ctx, rng) for _ in range(count)]
    while len(mats) < 2 * count:
        c = p * rng.choice((-6, -3, -1, 1, 2, 5))
        d = rng.randint(-200, 200)
        try:
            a = pow(d, -1, c)
        except ValueError:
            continue
        m = SL2Matrix(a, (a * d - 1) // c, c, d)
        mats.append(-m if rng.random() < 0.5 else m)
    return mats


def mutant(shift):
    """eta_multiplier with shift(g, N, m) added to t off the translations."""
    def multiplier(g, level, m):
        t, new = eta_multiplier(g, level, m)
        if m.c == 0:
            return t, new
        return t + shift(g, level, m), new
    return multiplier


MUTANTS = {
    "drop 12g^2ab": lambda g, n, m: -12 * g * g * m.a * m.b,
    "epsilon + 3/12": lambda g, n, m: 2 * n * 3,
    "negated phase": lambda g, n, m: -24 * (g * g * m.a * m.b - g * m.b * n),
}


def test_product_identity_on_golden_draws():
    for p, mats in golden_draws().items():
        for m in mats:
            assert product_identity_holds(p, m, eta_multiplier), (p, tuple(m))


def test_cocycle_on_golden_draws():
    for p, mats in golden_draws().items():
        for m1, m2 in zip(mats, mats[1:]):
            for g in range(1, (p - 1) // 2 + 1, 1 + p // 200):
                assert cocycle_holds(g, p, m1, m2, eta_multiplier), (p, g, m1, m2)


@pytest.mark.parametrize("p, count", [(5, 40), (7, 40), (11, 30), (13, 30), (29, 20),
                                      (101, 10), (1009, 3), (10007, 1)])
def test_identities_on_random_gamma0_matrices(p, count):
    mats = random_gamma0(p, count, 71)
    for m in mats:
        assert product_identity_holds(p, m, eta_multiplier), (p, tuple(m))
    step = 1 + p // 300
    for m1, m2 in zip(mats, mats[1:]):
        for g in range(1, (p - 1) // 2 + 1, step):
            assert cocycle_holds(g, p, m1, m2, eta_multiplier), (p, g, tuple(m1), tuple(m2))


def test_whole_product_turns_give_the_eta_quotient_multiplier():
    # multiplier_turns on E_1 ... E_((p-1)/2) in one call; the moved
    # indices a*r carry (-1)^(a*r div p) each
    cases = [*golden_draws().items(), (10007, random_gamma0(10007, 2, 97))]
    for p, mats in cases:
        exponents = dict.fromkeys(range(1, (p - 1) // 2 + 1), 1)
        for m in mats:
            a = m.a if m.c else 1
            shifts = sum(a * r // p for r in exponents)
            root = turns(multiplier_turns(exponents, p, m) + 12 * p * shifts, 24 * p)
            assert root == eta_quotient_multiplier(m, p), (p, tuple(m))


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutation_fails_an_identity(name):
    multiplier = mutant(MUTANTS[name])
    product_fails = cocycle_fails = 0
    for p in (5, 7, 11, 13, 29, 101):
        mats = random_gamma0(p, 15, 83)
        product_fails += sum(not product_identity_holds(p, m, multiplier) for m in mats)
        cocycle_fails += sum(
            not cocycle_holds(g, p, m1, m2, multiplier)
            for m1, m2 in zip(mats, mats[1:]) for g in range(1, (p - 1) // 2 + 1)
        )
    assert product_fails + cocycle_fails > 0
    if name == "negated phase":
        # the product identity alone cannot see it
        assert product_fails == 0 and cocycle_fails > 0
