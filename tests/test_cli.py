"""End-to-end CLI behavior: frozen outputs, exit codes, JSON artifacts."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etacover
import etacover.cli as cli
from etacover.certify import certify, report_to_dict, report_to_json
from etacover.exact import is_prime, prime_context
from etacover.cli import main
from etacover.subgroups import Subgroup
from oracles import sorted_cusps_text


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


def test_bad_function_choice_exits_2(capsys):
    code, out, err = run(capsys, "expand", "--p", "5", "--function", "Q")
    assert (code, out) == (2, "") and err.startswith("error: --function expects")


def test_mixed_commands_give_the_same_results_in_either_order(capsys):
    # main() keeps no parser state between calls: a mixed run repeated,
    # forwards or reversed, prints what its first run printed
    commands = [
        ["cusps", "--p", "11", "--group", "Gamma1"],
        ["certify", "--p", "13", "--json"],
        ["expand", "--function", "eta"],
        ["expand", "--p", "5", "--function", "Q"],  # not a choice: exit 2
        ["certify", "--p", "9"],  # not prime: exit 2
        ["cusps", "--help"],
    ]
    first = [run(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 2, 0]
    assert [run(capsys, *argv) for argv in commands] == first
    assert [run(capsys, *argv) for argv in reversed(commands)] == first[::-1]


# every malformed command line exits 2 with one error line and no output
MALFORMED = {
    "no command": [],
    "unknown command": ["cusp", "--p", "11"],
    "unknown option": ["cusps", "--p", "11", "--grup", "Gamma1"],
    "abbreviated option": ["expand", "--p", "5", "--func", "F"],
    "positional": ["cusps", "11"],
    "missing value": ["cusps", "--p"],
    "not an integer": ["cusps", "--p", "x"],
    "bad choice": ["cusps", "--p", "11", "--group", "Gamma9"],
    "missing required": ["expand", "--p", "5", "--index", "2"],
    "flag with a value": ["certify", "--p", "5", "--json=1"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED)
def test_malformed_command_lines_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# the options each command takes, as the README documents them
OPTIONS = {
    "expand": ["p", "function", "index", "prec"],
    "character": ["p", "matrix", "which"],
    "cusps": ["p", "group"],
    "certify": ["p", "range", "out", "json", "prec"],
    "z-relation": ["p"],
}


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("command", [None, *OPTIONS])
def test_help_names_every_option(capsys, command, flag):
    # with no command, --help prints the usage of every command
    code, out, err = run(capsys, *([command] if command else []), flag)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    shown = [name for name in OPTIONS if command in (None, name)]
    assert [line.split()[2] for line in lines if line.startswith("usage: ")] == shown
    assert [line.split()[0] for line in lines if line.startswith("    --")] == [
        f"--{option}" for name in shown for option in OPTIONS[name]]


def test_the_command_table_holds_the_documented_options():
    assert {name: list(options) for name, (_, _, options) in cli.COMMANDS.items()} == OPTIONS


def test_values_may_start_with_a_dash(capsys):
    _, args = cli._parse(["expand", "--p", "5", "--function", "E", "--index", "-1"])
    assert args.index == -1
    _, args = cli._parse(["character", "--matrix=-1,0,0,-1", "--which", "psi"])
    assert args.matrix == "-1,0,0,-1"
    assert run(capsys, "character", "--matrix=-1,0,0,-1", "--which", "epsilon") == (0, "-1\n", "")
    assert run(capsys, "expand", "--p", "5", "--function", "E", "--index", "-1", "--prec=3") == (
        0, "-1*q^(1/60) + 1*q^(61/60) + O(q^(181/60))\n", "")


def test_equals_form_and_the_last_repeat_win(capsys):
    spaced = run(capsys, "cusps", "--p", "13", "--group", "Gamma1")
    assert run(capsys, "cusps", "--p=13", "--group=Gamma1") == spaced
    assert run(capsys, "cusps", "--group", "Gamma0", "--p", "7", "--group=Gamma1", "--p", "13") == spaced


def test_python_m_etacover_reads_sys_argv():
    # main(None) parses sys.argv[1:], as the etacover script and python -m do
    env = {**os.environ, "PYTHONPATH": str(Path(etacover.__file__).parent.parent)}

    def etacover_run(*argv):
        return subprocess.run([sys.executable, "-m", "etacover", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = etacover_run("--help")
    assert done.returncode == 0 and "usage: etacover cusps" in done.stdout
    done = etacover_run()
    assert (done.returncode, done.stdout) == (2, "") and done.stderr.startswith("error: ")
    done = etacover_run("cusps", "--p", "11", "--group", "Gamma1")
    assert (done.returncode, done.stdout, done.stderr) == (0, CUSPS_11_GAMMA1, "")


# -- character -------------------------------------------------------------


def test_character_frozen(capsys):
    assert run(capsys, "character", "--matrix", "1,1,0,1", "--which", "psi") == (0, "-1\n", "")
    assert run(capsys, "character", "--matrix", "1,0,1,1", "--which", "epsilon") == (
        0, "e^(2*pi*i*11/12)\n", "")
    assert run(capsys, "character", "--p", "13", "--matrix", "1,0,13,1",
               "--which", "chi") == (0, "1\n", "")


@pytest.mark.parametrize("matrix, want", [
    ("1,0,0,1", "1"),
    ("-1,0,0,-1", "-1"),
    ("0,-1,1,0", "e^(2*pi*i*3/4)"),
    ("1,1,0,1", "e^(2*pi*i*1/12)"),
    ("1,0,2,1", "e^(2*pi*i*5/6)"),
])
def test_character_epsilon_bytes(capsys, matrix, want):
    # the eta^2 multiplier in twelfths of a turn, printed in lowest terms
    assert run(capsys, "character", f"--matrix={matrix}", "--which", "epsilon") == (
        0, want + "\n", "")


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


CUSPS_11_GAMMA1 = """\
     inf  width 1
     1/1  width 11
     1/2  width 11
     1/3  width 11
     1/4  width 11
     1/5  width 11
    2/11  width 1
    3/11  width 1
    4/11  width 1
    5/11  width 1
10 cusps of Gamma1(11), width sum 60
"""


def test_cusps_gamma1_frozen(capsys):
    code, out, _ = run(capsys, "cusps", "--p", "11", "--group", "Gamma1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "     inf  width 1"
    assert lines[1] == "     1/1  width 11"
    assert lines[-1] == "10 cusps of Gamma1(11), width sum 60"
    assert len(lines) == 11
    assert out == CUSPS_11_GAMMA1


# cusps --p 37, recorded while cusps were Cusp objects: (lines, sha256 of
# stdout); inf, r/p and 1/r rows, widths doubled on Gamma2Prime
CUSPS_37 = {
    "Gamma0": (3, "677ce013dc9e58816d1a69de06de79a02883bdc19d65ad2209347ca9b8c764c9"),
    "Gamma1": (37, "2ac04763149a12ec4494a995c5a8dbafb1fe3c885c69b9d7241b6f835c8c78be"),
    "Gamma2": (7, "ce70459f1474b4c6abf636f0ff1752b1b4b9ef744d6076547893194c65cd2418"),
    "Gamma2Prime": (7, "26c4647b92cd96f5ab7d4eb77a15c3cc27955dc34a47a9ffa985afa4ea76f52d"),
}


@pytest.mark.parametrize("group", CUSPS_37)
def test_cusps_37_bytes(capsys, group):
    code, out, _ = run(capsys, "cusps", "--p", "37", "--group", group)
    assert code == 0
    assert (out.count("\n"), hashlib.sha256(out.encode()).hexdigest()) == CUSPS_37[group]
    if group == "Gamma2Prime":
        assert out.splitlines()[:2] == ["     inf  width 2", "     1/1  width 74"]
        assert out.splitlines()[4] == "    2/37  width 2"


# cusps --p 1009, recorded before the rows were written from their columns:
# (lines, sha256 of stdout)
CUSPS_1009 = {
    "Gamma0": (3, "0adefb4b4588963425615b1514ea6fa2a6020063b213eb2dbe64723bcf8cde43"),
    "Gamma1": (1009, "ccff58e5502ac365c4bcaf20a17bfb4477f0520b020344459997c19bff59b715"),
    "Gamma2": (169, "1ccd5df88e2e9704f0908ab3ca89414a2dbb433bfd43ed171de9944f7051c6f3"),
    "Gamma2Prime": (169, "d5a123c73614640eb0556759e6683d8fa19a73a9c72d5719612c4ed115a3e6f3"),
}


@pytest.mark.parametrize("group", CUSPS_1009)
def test_cusps_1009_bytes(capsys, group):
    code, out, _ = run(capsys, "cusps", "--p", "1009", "--group", group)
    assert code == 0
    assert (out.count("\n"), hashlib.sha256(out.encode()).hexdigest()) == CUSPS_1009[group]


def test_cusps_write_the_sorted_table(capsys):
    # inf, 1/r, then r/p from the columns is cusp_set's table sorted by (c, a)
    for p in filter(is_prime, range(5, 2000)):
        ctx = prime_context(p)
        for group in Subgroup:
            code, out, _ = run(capsys, "cusps", "--p", str(p), "--group", group.value)
            assert (code, out) == (0, sorted_cusps_text(group, ctx)), (p, group)


def test_cusps_default_group_is_gamma2(capsys):
    code, out, _ = run(capsys, "cusps", "--p", "13")
    assert code == 0
    assert "cusps of Gamma2(13)" in out


def test_cusps_bad_group_exits_2(capsys):
    code, out, err = run(capsys, "cusps", "--p", "11", "--group", "Gamma9")
    assert (code, out) == (2, "") and err.startswith("error: --group expects")


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


def test_certify_range_json_streams_each_report(capsys, monkeypatch):
    seen = {}

    def watched(p):
        seen[p] = capsys.readouterr().out
        return certify(p)

    monkeypatch.setattr("etacover.cli.certify", watched)
    code, out, _ = run(capsys, "certify", "--range", "5..7", "--json")
    assert code == 0
    assert seen[5] == "" and seen[7].startswith('[\n  {\n    "p": 5,')
    reports = [json.loads(report_to_json(certify(q))) for q in (5, 7)]
    assert seen[7] + out == json.dumps(reports, indent=2) + "\n"


def test_certify_range_json_is_json_dumps_of_the_reports(capsys):
    # rows written directly, reports streamed: still json.dumps(list, indent=2)
    code, out, _ = run(capsys, "certify", "--range", "2..60", "--json")
    assert code == 0
    reports = [report_to_dict(certify(q)) for q in range(2, 61) if is_prime(q)]
    assert out == json.dumps(reports, indent=2) + "\n"


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


@pytest.mark.parametrize("argv", [["--p", "7"], ["--range", "5..11"]], ids=["p", "range"])
def test_certify_json_and_out_serialize_once(capsys, tmp_path, monkeypatch, argv):
    # --json and --out share one report text per prime; each file holds
    # the report as printed, plus a newline
    calls = []

    def counted(r):
        calls.append(r.p)
        return report_to_json(r)

    monkeypatch.setattr("etacover.cli.report_to_json", counted)
    code, out, _ = run(capsys, "certify", *argv, "--json", "--out", str(tmp_path))
    primes = [7] if argv[0] == "--p" else [5, 7, 11]
    assert code == 0 and calls == primes
    texts = [(tmp_path / f"{p}.json").read_text() for p in primes]
    assert all(t.endswith("}\n") for t in texts)
    if argv[0] == "--p":
        assert texts == [out]
    else:
        items = ",\n  ".join(t[:-1].replace("\n", "\n  ") for t in texts)
        assert out == f"[\n  {items}\n]\n"


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


@pytest.mark.parametrize("argv", [["--p", "7"], ["--range", "5..11"]], ids=["p", "range"])
def test_certify_unwritable_report_exits_2(capsys, tmp_path, argv):
    # a directory where the report of 7 should go: the write fails, the
    # run stops with exit 2 and a one-line error, and earlier lines stay
    (tmp_path / "7.json").mkdir()
    code, stdout, err = run(capsys, "certify", *argv, "--out", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path / '7.json'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert stdout == ("p=5 branch=F-chi degree=2 overall=pass\n" if argv[0] == "--range" else "")
    assert (tmp_path / "7.json").is_dir()


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
    code, out, err = run(capsys, "certify", "--range", "5..11", "--out", str(outdir))
    assert code == 1
    # the failing prime's traceback goes to stderr, once, ending in its error
    assert err.count("Traceback (most recent call last)") == 1
    assert err.endswith("RuntimeError: boom\n")
    assert sorted(f.name for f in outdir.iterdir()) == ["11.json", "5.json", "7.json"]
    failed = json.loads((outdir / "7.json").read_text())
    assert failed["overall"] is False and failed["cusps"] == []
    assert failed["checks"] == [
        {"name": "error", "status": "fail", "reason": "RuntimeError: boom"}
    ]
    assert json.loads((outdir / "11.json").read_text())["overall"] is True
    assert out.endswith("certified 2/3 primes\n")


def test_certify_range_survives_a_raising_small_prime(capsys, monkeypatch):
    # 2 and 3 have no prime_context; their error report is built from the
    # same recorded data as their pass report
    def flaky(p):
        if p == 2:
            raise RuntimeError("boom")
        return certify(p)

    monkeypatch.setattr("etacover.cli.certify", flaky)
    code, out, err = run(capsys, "certify", "--range", "2..7", "--json")
    assert code == 1 and err.endswith("RuntimeError: boom\n")
    reports = json.loads(out)
    assert [(r["p"], r["overall"]) for r in reports] == [(2, False), (3, True), (5, True),
                                                         (7, True)]
    failed = reports[0]
    assert (failed["g"], failed["k"], failed["ell"], failed["Np"]) == (1, 1, 0, 1)
    assert (failed["degree"], failed["branch"], failed["cusps"]) == (2, "small-p", [])
    assert failed["checks"] == [
        {"name": "error", "status": "fail", "reason": "RuntimeError: boom"}
    ]


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
