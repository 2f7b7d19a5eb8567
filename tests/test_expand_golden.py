"""`expand` output frozen byte for byte over a grid of invocations.

tests/data/expand_golden.json holds the stdout, stderr and exit code of
every invocation in GRID, recorded before the series kernel moved to
integer coefficients.  Re-record only for an intended output change:

    PYTHONPATH=src python3 tests/test_expand_golden.py
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from etacover.cli import main

GOLDEN = Path(__file__).parent / "data" / "expand_golden.json"


def _grid() -> list[list[str]]:
    grid = []
    for p in (5, 7, 11, 13, 23):
        for prec in (1, 10, 40):
            for fn in ("E", "F"):
                for index in (1, 2, 3, -1, p + 2, p):
                    grid.append(["expand", "--p", str(p), "--function", fn,
                                 "--index", str(index), "--prec", str(prec)])
            for fn in ("G", "z"):
                grid.append(["expand", "--p", str(p), "--function", fn,
                             "--prec", str(prec)])
    for scale in (1, 2, 7, 24):
        for prec in (1, 10, 100):
            grid.append(["expand", "--function", "eta", "--index", str(scale),
                         "--prec", str(prec)])
    # the long expansions of the benchmark's deep workload
    grid += [
        ["expand", "--p", "13", "--function", "F", "--prec", "200"],
        ["expand", "--p", "23", "--function", "G", "--prec", "200"],
        ["expand", "--p", "47", "--function", "G", "--prec", "300"],
        ["expand", "--p", "7", "--function", "z", "--prec", "200"],
        ["expand", "--function", "eta", "--index", "1", "--prec", "500"],
    ]
    # invalid input
    grid += [
        ["expand", "--p", "9", "--function", "E"],
        ["expand", "--function", "E"],
        ["expand", "--p", "5", "--function", "F", "--prec", "0"],
    ]
    return grid


GRID = _grid()


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_expand_matches_golden_bytes():
    golden = json.loads(GOLDEN.read_text())
    assert [rec["argv"] for rec in golden] == GRID
    assert [rec["argv"] for rec in golden if run(rec["argv"]) != rec] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in GRID], indent=1) + "\n")
