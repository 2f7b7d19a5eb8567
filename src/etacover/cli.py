"""Command-line front end: expansions, characters, cusp tables, certification.

COMMANDS is the one table of commands and their options, which _parse reads
and --help prints.  Exit codes: 0 success, 1 computational failure (including
a certification verdict of fail), 2 invalid input, named on one `error:` line.
Identical invocations print identical bytes; all randomness is seeded per prime.

When stdout's reader goes away (`certify --range 5..400 | head -1`), the
run stops quietly with exit code 1: stdout is pointed at the null device,
so nothing is left to flush into the closed pipe.
"""

from __future__ import annotations

import os
import sys
from math import gcd
from pathlib import Path
from types import SimpleNamespace

from .certify import ROW_CHUNK, certify, error_report, report_chunks, verify_z_relation
from .eta import (
    EtaProduct,
    classical_eta,
    eta_quotient_series,
    expand_product,
    find_triplet,
    orbit_product,
    triplet_product,
)
from .exact import is_prime, prime_context
from .qseries import PrecisionError
from .subgroups import (
    SL2Matrix,
    Subgroup,
    cusp_name,
    cusp_reps,
    epsilon_factor,
    psl_index,
    quadratic_character,
    sign_character,
)


def _require_prime(p: int | None) -> int:
    if p is None:
        raise ValueError("--p is required for this command")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _require_prec(prec: int) -> int:
    if prec < 1:
        raise ValueError("--prec must be a positive number of q-steps")
    return prec


def cmd_expand(args) -> int:
    prec = _require_prec(args.prec)
    if args.function == "eta":
        print(classical_eta(args.index, prec).render())
        return 0
    p = _require_prime(args.p)
    ctx = prime_context(p)
    if args.function == "E":
        if args.index % p == 0:
            raise ValueError(f"index {args.index} is divisible by the level {p}")
        series = expand_product(EtaProduct.from_factors(p, [(args.index, 1)], "E"), prec)
    elif args.function == "F":
        if args.index % p == 0:
            raise ValueError(f"index {args.index} is divisible by {p}")
        series = expand_product(orbit_product(args.index, ctx), prec)
    elif args.function == "G":
        series = expand_product(triplet_product(find_triplet(p), p), prec)
    else:  # z
        series = eta_quotient_series(ctx, prec)
    print(series.render())
    return 0


def cmd_character(args) -> int:
    m = SL2Matrix.parse(args.matrix)
    if args.which == "psi":
        print(sign_character(m))
    elif args.which == "epsilon":
        t = epsilon_factor(m.a, m.b, m.c, m.d)  # twelfths of a turn
        n = gcd(t, 12)
        print({0: "1", 6: "-1"}.get(t, f"e^(2*pi*i*{t // n}/{12 // n})"))
    else:  # chi
        ctx = prime_context(_require_prime(args.p))
        print(quadratic_character(m, ctx))
    return 0


def cmd_cusps(args) -> int:
    """inf, then 1/r for r in reps, then r/p for r in reps[1:], named as cusp_name names them:
    the table sorted by (c, a), written from cusp_reps' columns ROW_CHUNK rows at a time."""
    ctx = prime_context(_require_prime(args.p))
    group = Subgroup(args.group)
    reps, scale = cusp_reps(group, ctx)
    p, write, step = ctx.p, sys.stdout.write, ROW_CHUNK
    write(f"{cusp_name(1, 0):>8}  width {scale}\n")
    row = f"%8s  width {scale * p}\n"
    for i in range(0, len(reps), step):
        write("".join([row % f"1/{r}" for r in reps[i:i + step]]))
    row = f"%8s  width {scale}\n"
    for i in range(1, len(reps), step):
        write("".join([row % f"{r}/{p}" for r in reps[i:i + step]]))
    print(f"{2 * len(reps)} cusps of {group.value}({p}), width sum {psl_index(group, ctx)}")
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        raise ValueError(f"expected a range like 5..50, got {text!r}")
    a, b = int(lo), int(hi)
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return a, b


def cmd_certify(args) -> int:
    if (args.p is None) == (args.range is None):
        raise ValueError("exactly one of --p / --range is required")
    if args.p is not None:
        primes = [_require_prime(args.p)]
    else:
        a, b = _parse_range(args.range)
        primes = [q for q in range(max(a, 2), b + 1) if is_prime(q)]
        if not primes:
            raise ValueError(f"no primes in range {args.range}")
    _require_prec(args.prec)  # kept for old command lines; certify has no settings
    if args.out is not None:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use --out {args.out} as a directory: {exc}") from exc
    passed, single = 0, args.p is not None  # a --range --json run prints one array
    opening, indent = ("", "\n") if single else ("[\n  ", "\n  ")
    for q in primes:
        try:
            r = certify(q)
        except Exception as exc:  # one failing prime must not lose the run
            import traceback  # imported here: only a failing prime needs it
            traceback.print_exc()
            r = error_report(q, exc)
        if args.out is not None:  # report_to_json(r) + newline, streamed; no sink holds it whole
            path = Path(args.out) / f"{r.p}.json"
            try:
                with open(path, "w") as f:
                    f.writelines(report_chunks(r))
                    f.write("\n")
            except OSError as exc:
                raise ValueError(f"cannot write {path}: {exc}") from exc
        passed += r.overall
        if not args.json:
            verdict = "pass" if r.overall else "FAIL"
            print(f"p={r.p} branch={r.branch} degree={r.degree} overall={verdict}", flush=True)
        else:  # json.dumps(reports, indent=2) byte for byte, indented as it is written
            sys.stdout.write(opening)
            sys.stdout.writelines(report_chunks(r, indent))
            sys.stdout.flush()
            opening = ",\n  "
    if not args.json:
        print(f"certified {passed}/{len(primes)} primes")
    else:
        print("" if single else "\n]")
    return 0 if passed == len(primes) else 1


def cmd_z_relation(args) -> int:
    ctx = prime_context(_require_prime(args.p))
    res = verify_z_relation(ctx)
    if res.status == "skipped":
        print(f"z-relation skipped for p={ctx.p}: {res.reason}")
        return 0
    if res.status == "pass":
        sign = res.witness["sign"]
        print(
            f"z == {'+' if sign == 1 else '-'}prod F_(g^j), j < {ctx.k} "
            "(formal eta-product identity)"
        )
        return 0
    print(f"z-relation FAILED for p={ctx.p}: {res.reason}")
    return 1


REQUIRED = object()  # the default of an option that must be given
# command: (handler, help, {option: (kind, default, help)}); a kind is int, str,
# bool (a flag, set by naming it) or the tuple of allowed values
COMMANDS = {
    "expand": (cmd_expand, "print an exact q-expansion", {
        "p": (int, None, "prime level"),
        "function": (("E", "F", "G", "z", "eta"), REQUIRED, "the series"),
        "index": (int, 1, "index g or h (scale for eta; ignored for G and z)"),
        "prec": (int, 10, "q-steps past leading")}),
    "character": (cmd_character, "evaluate a character or multiplier", {
        "p": (int, None, "prime (required for chi)"),
        "matrix": (str, REQUIRED, "entries a,b,c,d"),
        "which": (("psi", "chi", "epsilon"), REQUIRED, "the character")}),
    "cusps": (cmd_cusps, "list cusps and widths of a subgroup", {
        "p": (int, REQUIRED, "prime level"),
        "group": (tuple(g.value for g in Subgroup), "Gamma2", "the subgroup")}),
    "certify": (cmd_certify, "run the per-prime certifier", {
        "p": (int, None, "a single prime"),
        "range": (str, None, "inclusive prime range A..B"),
        "out": (str, None, "directory for one JSON report per prime"),
        "json": (bool, False, "print reports as JSON"),
        "prec": (int, 10, "accepted for compatibility; no effect")}),
    "z-relation": (cmd_z_relation, "check z against the product of F units", {
        "p": (int, REQUIRED, "prime level")}),
}


def _shape(kind) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()


def _usage(args) -> int:
    """Print the usage of args.command, or of every command when it is None."""
    for command in [args.command] if args.command else COMMANDS:
        _, about, options = COMMANDS[command]
        print(f"usage: etacover {command} [--option VALUE ...]\n  {about}")
        for name, (kind, default, text) in options.items():
            flag = f"--{name}" if kind is bool else f"--{name} {_shape(kind)}"
            print(f"    {flag}\n        {text}" + " (required)" * (default is REQUIRED))
    return 0


def _parse(argv: list[str]):
    """(handler, args) for one command line, read from COMMANDS: -h or --help
    anywhere gives _usage, and any other malformed line raises ValueError."""
    command = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        return _usage, SimpleNamespace(command=command if command in COMMANDS else None)
    if command not in COMMANDS:
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    handler, _, options = COMMANDS[command]
    args, tokens = {name: default for name, (_, default, _) in options.items()}, iter(argv[1:])
    for token in tokens:
        name, eq, value = token[2:].partition("=")
        kind = options[name][0] if token.startswith("--") and name in options else None
        if kind is None or kind is bool and eq:
            raise ValueError(f"{command} has no option {token!r}")
        if kind is not bool and not eq:  # the next token, even one that starts with '-'
            value = next(tokens, None)
        try:  # the last value given wins
            args[name] = True if kind is bool else int(value) if kind is int else value
        except (TypeError, ValueError):
            args[name] = None
        if args[name] is None or isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"--{name} expects {_shape(kind)}, got {value!r}")
    missing = [f"--{name}" for name, value in args.items() if value is REQUIRED]
    if missing:
        raise ValueError(f"{command} requires {', '.join(missing)}")
    return handler, SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        code = handler(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PrecisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
