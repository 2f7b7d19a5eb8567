"""`certify` reports at large primes, frozen by digest.

tests/data/certify_large.json holds, for each prime in PRIMES, the sha256
of report_to_json(certify(p)) with the `max_residual` lines dropped (those
carry the E_g evidence's last digits, as in certify_5_100.json) and the
number of cusp rows.  The primes are where earlier overflow, cancellation
and underflow bugs sat.  Re-record only for an intended output change:

    PYTHONPATH=src python3 tests/test_large_golden.py
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from etacover.certify import certify, report_to_json
from oracles import dumps_report

GOLDEN = Path(__file__).parent / "data" / "certify_large.json"
PRIMES = (509, 547, 1031, 1433, 2003, 10007, 10009, 20011, 50021, 100003)


@lru_cache(maxsize=None)
def report(p: int):
    return certify(p)


@lru_cache(maxsize=None)
def report_text(p: int) -> str:
    return report_to_json(report(p))


def digest(text: str) -> str:
    kept = "".join(
        line for line in text.splitlines(keepends=True) if '"max_residual"' not in line
    )
    return hashlib.sha256(kept.encode()).hexdigest()


def record(p: int) -> dict:
    return {"sha256": digest(report_text(p)), "cusp_count": len(report(p).cusps)}


@pytest.mark.parametrize("p", PRIMES)
def test_certify_matches_large_golden(p):
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == [str(q) for q in PRIMES]
    data = json.loads(report_text(p))
    assert data["overall"]
    assert {"sha256": digest(report_text(p)), "cusp_count": len(data["cusps"])} == golden[str(p)]
    residuals = [c["witness"]["max_residual"] for c in data["checks"]
                 if "max_residual" in c.get("witness", {})]
    assert residuals and max(residuals) < 1e-10, residuals


@pytest.mark.parametrize("p", PRIMES)
def test_report_bytes_match_the_json_dumps_oracle(p):
    assert report_text(p) == dumps_report(report(p))


@pytest.mark.parametrize("old, new", [
    ('"order": -', '"order": +'),      # a cusp order
    ('"cusp_count"', '"cusp_Count"'),  # a witness key
    ('"sign": -1', '"sign": +1'),      # the z-relation sign
])
def test_one_character_edits_leave_the_golden(old, new):
    text = report_text(509)
    assert text.count(old) >= 1
    edited = text.replace(old, new, 1)
    assert len(edited) == len(text)
    assert digest(edited) != json.loads(GOLDEN.read_text())["509"]["sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({str(p): record(p) for p in PRIMES}, indent=1) + "\n")
