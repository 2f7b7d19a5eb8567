"""The operations of each benchmark workload, as etacover command lines.

Every operation is one argv for ``etacover.cli.main``.  A workload's
operations run one after another in a single process; the seed only
permutes their order, which matters because the program keeps
process-wide caches (``subgroups._dlog_table`` today).
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def _certify_json(p: int) -> list[str]:
    return ["certify", "--p", str(p), "--json"]


def _certify_deep(p: int) -> list[str]:
    return ["certify", "--p", str(p), "--prec", "80"]


def _cusps(p: int, group: str) -> list[str]:
    return ["cusps", "--p", str(p), "--group", group]


_EXPANSIONS = [
    ["expand", "--p", "13", "--function", "F", "--prec", "200"],
    ["expand", "--p", "23", "--function", "G", "--prec", "200"],
    ["expand", "--p", "47", "--function", "G", "--prec", "300"],
    ["expand", "--p", "7", "--function", "z", "--prec", "200"],
    ["expand", "--function", "eta", "--index", "1", "--prec", "500"],
]

_GROUPS = ("Gamma1", "Gamma2", "Gamma2Prime")

WORKLOADS = {
    # the certifier over the baseline range: the cusp scan of subgroups
    "sweep": [_certify_json(p) for p in _primes(5, 100)],
    # small primes at high precision plus long expansions: the series
    # kernel (multiply/power chains and the inverse in the z-relation)
    "deep": [_certify_deep(p) for p in (5, 7, 11, 13, 17, 19)] + _EXPANSIONS,
    # cusp tables only, including Gamma2Prime, which certify never asks for
    "cusps": [_cusps(p, g) for p in (43, 61, 73) for g in _GROUPS],
}

# A few fast operations of each workload, for the benchmark's self-test.
TINY = {
    "sweep": [_certify_json(p) for p in (5, 7, 11, 13)],
    "deep": [_certify_deep(11)] + _EXPANSIONS[1:4],
    "cusps": [_cusps(43, "Gamma2"), _cusps(43, "Gamma2Prime")],
}


def operations(workload: str, seed: int = DEFAULT_SEED, tiny: bool = False) -> list[list[str]]:
    """The workload's operations in the order the seed picks."""
    ops = [list(op) for op in (TINY if tiny else WORKLOADS)[workload]]
    random.Random(seed).shuffle(ops)
    return ops
