"""Smoke test of tests/measure.py on `certify --p 5`."""

import hashlib
from pathlib import Path

import measure
from etacover.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_measure_reports_each_run_and_the_medians(capsys):
    assert main(["certify", "--p", "5"]) == 0
    out = capsys.readouterr().out.encode()
    assert measure.main(["--src", SRC, "--runs", "2", "--", "certify", "--p", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"run 1 {SRC}", f"run 2 {SRC}",
                                                      f"median {SRC}"]
    for line in lines[:2]:
        assert line.endswith(f"{len(out)} bytes  sha256 {hashlib.sha256(out).hexdigest()}  exit 0")
        assert float(line.split()[5]) > 1  # peak MB of a Python child
