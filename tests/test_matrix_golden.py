"""SL2 matrices the library builds, frozen entry for entry.

tests/data/matrix_golden.json holds two grids:

- "draws": 20 `random_member` draws per group for p in PRIMES, each group
  drawn from a fresh `random.Random(DEFAULT_SEED + p)`, the seeding certify
  uses; the JSON golden of certify drops `max_residual`, so this is what
  notices a changed draw;
- "sections": `Cusp.section().entries()` for every cusp a/c with
  |a| <= 60 and 0 <= c < 60.

Re-record only for an intended change of the matrices:

    PYTHONPATH=src python3 tests/test_matrix_golden.py
"""

import json
import random
from math import gcd
from pathlib import Path

from etacover.certify import DEFAULT_SEED
from etacover.exact import prime_context
from etacover.subgroups import Cusp, Subgroup, random_member

GOLDEN = Path(__file__).parent / "data" / "matrix_golden.json"
PRIMES = (5, 13, 23, 101, 1009)
DRAWS = 20


def draws() -> dict:
    out = {}
    for p in PRIMES:
        ctx = prime_context(p)
        for group in Subgroup:
            rng = random.Random(DEFAULT_SEED + p)
            out[f"{p}/{group.value}"] = [
                list(random_member(group, ctx, rng).entries()) for _ in range(DRAWS)
            ]
    return out


def sections() -> dict:
    return {
        f"{a}/{c}": list(Cusp(a, c).section().entries())
        for c in range(60)
        for a in range(-60, 61)
        if gcd(a, c) == 1 and (c > 0 or a == 1)
    }


def record() -> dict:
    return {"draws": draws(), "sections": sections()}


def test_random_member_draws_match_golden():
    assert draws() == json.loads(GOLDEN.read_text())["draws"]


def test_cusp_sections_match_golden():
    golden = json.loads(GOLDEN.read_text())["sections"]
    assert len(golden) == 4376
    assert sections() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
