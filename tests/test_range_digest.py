"""`certify --range 5..1500 --json`, frozen by digest.

tests/data/certify_5_1500.json holds two sha256 digests of that run's
stdout, taken in-process through cli.main, and its line count:

- `sha256` drops the `max_residual` lines, as test_large_golden.digest does,
  and is compared on every platform.  It pins every report from 101 to
  1500, which the two certify goldens leave to the verdicts alone.
- `full_sha256` covers every byte, `max_residual` included, and is compared
  only where `platform` matches the machine, C library and Python version it
  was taken on, since those float digits may differ elsewhere.

Re-record (both digests) only for an intended output change:

    PYTHONPATH=src python3 tests/test_range_digest.py
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

from etacover.cli import main
from test_large_golden import digest

GOLDEN = Path(__file__).parent / "data" / "certify_5_1500.json"
ARGV = ["certify", "--range", "5..1500", "--json"]
PORTABLE = ("argv", "sha256", "lines")  # compared whatever the platform


def stdout() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(ARGV) == 0
    return out.getvalue()


def platform_tag() -> list:
    return [platform.machine(), *platform.libc_ver(), *sys.version_info[:2]]


def record(text: str) -> dict:
    return {"argv": ARGV, "sha256": digest(text), "lines": text.count("\n"),
            "full_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "platform": platform_tag()}


def test_certify_range_matches_its_digest():
    got, golden = record(stdout()), json.loads(GOLDEN.read_text())
    keys = list(golden) if golden["platform"] == got["platform"] else PORTABLE
    assert {k: got[k] for k in keys} == {k: golden[k] for k in keys}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(stdout()), indent=1) + "\n")
