"""The mathematical content of an operation's output, and the reference.

Only the mathematics is compared: the expansion text, the cusp
representatives with their widths (and orders, for certify), the
verdict, the branch and the degree.  Witness fields and CLI wording are
left out on purpose, so that reports can grow without the benchmark
counting them as wrong.  ``reference.json`` holds the content of every
workload operation, keyed by its command line; regenerate it with
``python3 perfbench/record_reference.py``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_SUMMARY = re.compile(r"p=(\d+) branch=(\S+) degree=(\d+) overall=(\w+)")
_CUSP_ROW = re.compile(r"^\s*(inf|-?\d+/\d+)\s+width\s+(\d+)\s*$", re.MULTILINE)


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def _report_content(report: dict) -> dict:
    return {
        "p": report["p"],
        "branch": report["branch"],
        "degree": report["degree"],
        "overall": report["overall"],
        "cusps": [[r["a"], r["c"], r["width"], r["order"]] for r in report["cusps"]],
    }


def content(argv: list[str], stdout: str):
    """What the reference pins for this operation; None if unreadable."""
    command = argv[0]
    try:
        if command == "certify" and "--json" in argv:
            return _report_content(json.loads(stdout))
        if command == "certify":
            return [
                {"p": int(p), "branch": b, "degree": int(d), "overall": v == "pass"}
                for p, b, d, v in _SUMMARY.findall(stdout)
            ] or None
        if command == "cusps":
            return [[cusp, int(w)] for cusp, w in _CUSP_ROW.findall(stdout)] or None
        if command == "expand":
            return stdout.strip() or None
    except (ValueError, KeyError, TypeError):
        return None
    raise ValueError(f"no reference rule for command {command!r}")


def check(argv: list[str], rc, stdout: str, reference: dict) -> str | None:
    """Why the operation failed, or None when it succeeded."""
    if rc != 0:
        return f"exit code {rc}"
    key = op_key(argv)
    if key not in reference:
        return "no reference recorded"
    if content(argv, stdout) != reference[key]:
        return "output differs from the reference"
    return None


def load() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
