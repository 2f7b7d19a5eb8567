"""`certify --range 5..1500 --json`, frozen by digest.

tests/data/certify_5_1500.json holds the sha256 of that run's stdout, taken
in-process through cli.main, with the `max_residual` lines dropped as in
test_large_golden.digest, and its line count.  It pins every report from
101 to 1500, which the two certify goldens leave to the verdicts alone.
Re-record only for an intended output change:

    PYTHONPATH=src python3 tests/test_range_digest.py
"""

import contextlib
import io
import json
from pathlib import Path

from etacover.cli import main
from test_large_golden import digest

GOLDEN = Path(__file__).parent / "data" / "certify_5_1500.json"
ARGV = ["certify", "--range", "5..1500", "--json"]


def stdout() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(ARGV) == 0
    return out.getvalue()


def record(text: str) -> dict:
    return {"argv": ARGV, "sha256": digest(text), "lines": text.count("\n")}


def test_certify_range_matches_its_digest():
    assert record(stdout()) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(stdout()), indent=1) + "\n")
