"""The group layer's reads of H = <g^k> against the orbit-table oracles.

The package takes no discrete log: cusp cosets come from a sieve over
+-H, the z-relation from a running product of g, the factors of F_h from
odd lifts of h*H, and Gamma2 membership and chi from a^ell.  Each is
compared with its table-based form in tests/oracles.py at every prime
below 2000 and at the large primes of the certify golden.
"""

import pytest

from etacover.certify import verify_z_relation
from etacover.eta import orbit_factors
from etacover.exact import is_prime, prime_context
from etacover.subgroups import (
    SL2Matrix,
    Subgroup,
    cusp_set,
    is_member,
    lift_with_upper_left,
    quadratic_character,
)
from oracles import (
    merged_z_relation,
    table_cusp_set,
    table_membership,
    table_orbit_factors,
    table_quadratic_character,
)
from test_large_golden import PRIMES

BANDS = {"below-2000": tuple(filter(is_prime, range(5, 2000))), "large": PRIMES}


@pytest.mark.parametrize("band", BANDS)
def test_cusp_sets_match_the_table(band):
    for p in BANDS[band]:
        ctx = prime_context(p)
        for group in Subgroup:
            assert cusp_set(group, ctx) == table_cusp_set(group, ctx), (p, group)


@pytest.mark.parametrize("band", BANDS)
def test_z_relation_matches_the_merge(band):
    # the merge has exponent 6/ell at every index 1..(p-1)/2, and the walk
    # finds the merge's sign and leading exponent
    for p in BANDS[band]:
        if p % 8 == 1:
            continue
        ctx = prime_context(p)
        exponents, sign, lead = merged_z_relation(ctx)
        assert exponents == dict.fromkeys(range(1, (p + 1) // 2), 6 // ctx.ell), p
        res = verify_z_relation(ctx)
        assert res.status == "pass", p
        assert (res.witness["sign"], res.witness["leading_exponent"]) == (sign, str(lead)), p


@pytest.mark.parametrize("band", BANDS)
def test_orbit_factors_match_the_table(band):
    for p in BANDS[band]:
        ctx = prime_context(p)
        for h in range(1, 60):
            if h % p:
                assert orbit_factors(h, ctx) == table_orbit_factors(h, ctx), (p, h)


@pytest.mark.parametrize("band", BANDS)
def test_membership_and_chi_match_the_table(band):
    # a lift of each a < 60, its translate (the other sign character) and
    # its negative, in all four groups; chi where p == 1 mod 4
    t = SL2Matrix.translation(1)
    for p in BANDS[band]:
        ctx = prime_context(p)
        for a in range(1, 60):
            if a % p == 0:
                continue
            lift = lift_with_upper_left(a, p)
            for m in (lift, lift * t, -lift):
                for group in Subgroup:
                    assert is_member(m, group, ctx) == table_membership(m, group, ctx), (p, m)
                if ctx.ell % 2:
                    continue
                if table_membership(m, Subgroup.GAMMA2, ctx):
                    assert quadratic_character(m, ctx) == table_quadratic_character(m, ctx)
                else:
                    with pytest.raises(ValueError):
                        quadratic_character(m, ctx)
