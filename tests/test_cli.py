"""End-to-end CLI behavior: frozen outputs, exit codes, JSON artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etacover
from etacover.certify import certify
from etacover.cli import main


GOLDEN = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expand ----------------------------------------------------------------


def test_expand_F_frozen(capsys):
    code, out, _ = run(capsys, "expand", "--p", "5", "--function", "F", "--index", "1")
    assert code == 0
    assert out == (
        "-1*q^(-1/2) + 3*q^(1/2) - 5*q^(5/2) - 3*q^(9/2) + 16*q^(11/2)"
        " - 15*q^(15/2) + O(q^(19/2))\n"
    )


def test_expand_eta_frozen(capsys):
    code, out, _ = run(capsys, "expand", "--function", "eta", "--index", "1", "--prec", "8")
    assert code == 0
    assert out == (
        "1*q^(1/24) - 1*q^(25/24) - 1*q^(49/24) + 1*q^(121/24)"
        " + 1*q^(169/24) + O(q^(193/24))\n"
    )


def test_expand_G_ignores_index(capsys):
    code, out, _ = run(capsys, "expand", "--p", "11", "--function", "G", "--prec", "6")
    assert code == 0
    assert out.startswith("1*q^(3/2) - 4*q^(5/2) + 6*q^(7/2)")
    same = run(capsys, "expand", "--p", "11", "--function", "G", "--prec", "6",
               "--index", "4")
    assert same == (code, out, "")


def test_expand_z_frozen(capsys):
    code, out, _ = run(capsys, "expand", "--p", "13", "--function", "z", "--prec", "5")
    assert code == 0
    assert out == "1*q^(-1/2) - 1*q^(1/2) - 1*q^(3/2) + O(q^(9/2))\n"


def test_expand_E_folds_index(capsys):
    # 8 = 5 + 3 picks up one sign, then 3 folds onto 2 with none
    code, out, _ = run(capsys, "expand", "--p", "5", "--function", "E",
                       "--index", "8", "--prec", "5")
    assert code == 0
    assert out == "-1*q^(-11/60) + 1*q^(109/60) + 1*q^(169/60) + O(q^(289/60))\n"


def test_expand_rejections(capsys):
    code, _, err = run(capsys, "expand", "--p", "5", "--function", "E", "--index", "0")
    assert code == 2 and "divisible" in err
    code, _, err = run(capsys, "expand", "--p", "6", "--function", "F")
    assert code == 2 and "not prime" in err
    code, _, err = run(capsys, "expand", "--p", "5", "--function", "F", "--prec", "0")
    assert code == 2
    code, _, err = run(capsys, "expand", "--function", "E", "--index", "1")
    assert code == 2 and "--p is required" in err


def test_bad_function_choice_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--p", "5", "--function", "Q"])
    assert exc.value.code == 2


# -- character -------------------------------------------------------------


def test_character_frozen(capsys):
    assert run(capsys, "character", "--matrix", "1,1,0,1", "--which", "psi") == (0, "-1\n", "")
    assert run(capsys, "character", "--matrix", "1,0,1,1", "--which", "epsilon") == (
        0, "e^(2*pi*i*11/12)\n", "")
    assert run(capsys, "character", "--p", "13", "--matrix", "1,0,13,1",
               "--which", "chi") == (0, "1\n", "")


def test_character_chi_needs_prime_and_even_ell(capsys):
    code, _, err = run(capsys, "character", "--matrix", "1,0,13,1", "--which", "chi")
    assert code == 2 and "--p is required" in err
    code, _, err = run(capsys, "character", "--p", "7", "--matrix", "1,0,7,1",
                       "--which", "chi")
    assert code == 2


def test_character_rejects_non_unimodular(capsys):
    code, _, err = run(capsys, "character", "--matrix", "1,1,1,1", "--which", "psi")
    assert code == 2


# -- cusps -----------------------------------------------------------------


def test_cusps_gamma1_frozen(capsys):
    code, out, _ = run(capsys, "cusps", "--p", "11", "--group", "Gamma1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "     inf  width 1"
    assert lines[1] == "     1/1  width 11"
    assert lines[-1] == "10 cusps of Gamma1(11), width sum 60"
    assert len(lines) == 11


def test_cusps_default_group_is_gamma2(capsys):
    code, out, _ = run(capsys, "cusps", "--p", "13")
    assert code == 0
    assert "cusps of Gamma2(13)" in out


def test_cusps_bad_group_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["cusps", "--p", "11", "--group", "Gamma9"])
    assert exc.value.code == 2


# -- certify ---------------------------------------------------------------


def test_certify_single_summary(capsys):
    code, out, _ = run(capsys, "certify", "--p", "13")
    assert code == 0
    assert out == "p=13 branch=F-chi degree=2 overall=pass\ncertified 1/1 primes\n"


def test_certify_range_summary(capsys):
    code, out, _ = run(capsys, "certify", "--range", "5..12")
    assert code == 0
    assert out.splitlines() == [
        "p=5 branch=F-chi degree=2 overall=pass",
        "p=7 branch=F-psi degree=2 overall=pass",
        "p=11 branch=G degree=10 overall=pass",
        "certified 3/3 primes",
    ]


def test_certify_range_prints_each_prime_when_it_finishes(capsys, monkeypatch):
    seen = {}

    def watched(p):
        seen[p] = capsys.readouterr().out
        return certify(p)

    monkeypatch.setattr("etacover.cli.certify", watched)
    code, out, _ = run(capsys, "certify", "--range", "5..7")
    assert code == 0
    assert seen == {5: "", 7: "p=5 branch=F-chi degree=2 overall=pass\n"}
    assert out == "p=7 branch=F-psi degree=2 overall=pass\ncertified 2/2 primes\n"


def test_certify_json_shapes(capsys):
    code, out, _ = run(capsys, "certify", "--p", "7", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 7 and doc["overall"] is True
    code, out, _ = run(capsys, "certify", "--range", "5..7", "--json")
    assert code == 0
    docs = json.loads(out)
    assert [d["p"] for d in docs] == [5, 7]


def test_certify_out_writes_reports(capsys, tmp_path):
    code, _, _ = run(capsys, "certify", "--range", "5..7", "--out", str(tmp_path / "r"))
    assert code == 0
    for p in (5, 7):
        text = (tmp_path / "r" / f"{p}.json").read_text()
        assert text.endswith("\n")
        assert json.loads(text)["p"] == p


def test_certify_out_must_be_a_directory(capsys, tmp_path, monkeypatch):
    def unreachable(p):
        raise AssertionError("certified a prime before checking --out")

    monkeypatch.setattr("etacover.cli.certify", unreachable)
    blocker = tmp_path / "report.json"
    blocker.write_text("not a directory\n")
    for out in (blocker, blocker / "r"):
        code, stdout, err = run(capsys, "certify", "--range", "5..7", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: cannot use --out")
    assert blocker.read_text() == "not a directory\n"


def test_certify_argument_validation(capsys):
    code, _, err = run(capsys, "certify", "--p", "4")
    assert code == 2 and "not prime" in err
    code, _, err = run(capsys, "certify", "--p", "5", "--range", "5..7")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "certify")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "certify", "--range", "5-10")
    assert code == 2 and "range" in err
    code, _, err = run(capsys, "certify", "--range", "24..28")
    assert code == 2 and "no primes" in err
    code, _, err = run(capsys, "certify", "--range", "5..7", "--prec", "0")
    assert code == 2 and "prec" in err


def test_certify_range_survives_a_raising_prime(capsys, tmp_path, monkeypatch):
    def flaky(p):
        if p == 7:
            raise RuntimeError("boom")
        return certify(p)

    monkeypatch.setattr("etacover.cli.certify", flaky)
    outdir = tmp_path / "r"
    code, out, _ = run(capsys, "certify", "--range", "5..11", "--out", str(outdir))
    assert code == 1
    assert sorted(f.name for f in outdir.iterdir()) == ["11.json", "5.json", "7.json"]
    failed = json.loads((outdir / "7.json").read_text())
    assert failed["overall"] is False and failed["cusps"] == []
    assert failed["checks"] == [
        {"name": "error", "status": "fail", "reason": "RuntimeError: boom"}
    ]
    assert json.loads((outdir / "11.json").read_text())["overall"] is True
    assert out.endswith("certified 2/3 primes\n")


def test_certify_prec_has_no_effect(capsys):
    assert run(capsys, "certify", "--p", "13", "--prec", "80") == run(capsys, "certify", "--p", "13")


def test_certify_repeat_is_byte_identical(capsys):
    first = run(capsys, "certify", "--p", "5", "--json")
    second = run(capsys, "certify", "--p", "5", "--json")
    assert first == second


# -- z-relation ------------------------------------------------------------


def test_z_relation_lines(capsys):
    code, out, _ = run(capsys, "z-relation", "--p", "5")
    assert code == 0
    assert out == "z == -prod F_(g^j), j < 1 (formal eta-product identity)\n"
    code, out, _ = run(capsys, "z-relation", "--p", "7")
    assert code == 0
    assert out.startswith("z == +prod F_(g^j), j < 1")
    code, out, _ = run(capsys, "z-relation", "--p", "17")
    assert code == 0
    assert out == "z-relation skipped for p=17: p == 1 mod 8: relation not asserted\n"


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_certify_into_a_closed_pipe_exits_quietly(extra):
    # `etacover certify --range 5..400 | head -1`: the reader leaves after
    # one line, and the run must stop without a traceback
    env = {**os.environ, "PYTHONPATH": str(Path(etacover.__file__).parent.parent)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "etacover", "certify", "--range", "5..400", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err, err.decode()


def test_certify_range_json_matches_golden_bytes(capsys):
    # the stdout of `certify --range 5..100 --json` as recorded before the
    # closed forms for the quotient and the cusp orders, with the
    # max_residual lines dropped: those carry the E_g evidence's last digits
    code, out, _ = run(capsys, "certify", "--range", "5..100", "--json")
    assert code == 0
    kept = "".join(
        line for line in out.splitlines(keepends=True) if '"max_residual"' not in line
    )
    assert kept == (GOLDEN / "certify_5_100.json").read_text()
