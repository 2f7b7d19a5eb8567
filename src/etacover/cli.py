"""Command-line front end: expansions, characters, cusp tables, certification.

Exit codes: 0 success, 1 computational failure (including a certification
verdict of fail), 2 invalid input.  Identical invocations print identical
bytes; all randomness is seeded per prime.

When stdout's reader goes away (`certify --range 5..400 | head -1`), the
run stops quietly with exit code 1: stdout is pointed at the null device,
so nothing is left to flush into the closed pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from .certify import certify, error_report, report_to_dict, report_to_json, verify_z_relation
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
    cusp_set,
    epsilon_factor,
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
        print(epsilon_factor(m.a, m.b, m.c, m.d))
    else:  # chi
        ctx = prime_context(_require_prime(args.p))
        print(quadratic_character(m, ctx))
    return 0


def cmd_cusps(args) -> int:
    ctx = prime_context(_require_prime(args.p))
    group = Subgroup(args.group)
    table = sorted(cusp_set(group, ctx), key=lambda cw: (cw[0].c, cw[0].a))
    for cusp, width in table:
        print(f"{str(cusp):>8}  width {width}")
    total = sum(w for _, w in table)
    print(f"{len(table)} cusps of {group.value}({ctx.p}), width sum {total}")
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
    passed = 0
    dicts = []  # the one JSON array of a --range --json run
    for q in primes:
        try:
            r = certify(q)
        except Exception as exc:  # one failing prime must not lose the run
            traceback.print_exc()
            r = error_report(q, exc)
        if args.out is not None:
            (Path(args.out) / f"{r.p}.json").write_text(report_to_json(r) + "\n")
        passed += r.overall
        if not args.json:
            verdict = "pass" if r.overall else "FAIL"
            print(f"p={r.p} branch={r.branch} degree={r.degree} overall={verdict}", flush=True)
        elif args.p is not None:
            print(report_to_json(r))
        else:
            dicts.append(report_to_dict(r))
    if dicts:
        print(json.dumps(dicts, indent=2))
    elif not args.json:
        print(f"certified {passed}/{len(primes)} primes")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etacover",
        description="Exact eta-product expansions and covering certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print an exact q-expansion")
    p_expand.add_argument("--p", type=int, help="prime level")
    p_expand.add_argument(
        "--function", required=True, choices=["E", "F", "G", "z", "eta"]
    )
    p_expand.add_argument(
        "--index", type=int, default=1,
        help="index g or h (scale for eta; ignored for G and z)",
    )
    p_expand.add_argument("--prec", type=int, default=10, help="q-steps past leading")
    p_expand.set_defaults(func=cmd_expand)

    p_char = sub.add_parser("character", help="evaluate a character or multiplier")
    p_char.add_argument("--p", type=int, help="prime (required for chi)")
    p_char.add_argument("--matrix", required=True, help="entries a,b,c,d")
    p_char.add_argument("--which", required=True, choices=["psi", "chi", "epsilon"])
    p_char.set_defaults(func=cmd_character)

    p_cusps = sub.add_parser("cusps", help="list cusps and widths of a subgroup")
    p_cusps.add_argument("--p", type=int, required=True)
    p_cusps.add_argument(
        "--group", default="Gamma2",
        choices=[g.value for g in Subgroup],
    )
    p_cusps.set_defaults(func=cmd_cusps)

    p_cert = sub.add_parser("certify", help="run the per-prime certifier")
    p_cert.add_argument("--p", type=int, help="a single prime")
    p_cert.add_argument("--range", help="inclusive prime range A..B")
    p_cert.add_argument("--out", help="directory for one JSON report per prime")
    p_cert.add_argument("--json", action="store_true", help="print reports as JSON")
    p_cert.add_argument("--prec", type=int, default=10, help="accepted for compatibility; no effect")
    p_cert.set_defaults(func=cmd_certify)

    p_z = sub.add_parser("z-relation", help="check z against the product of F units")
    p_z.add_argument("--p", type=int, required=True)
    p_z.set_defaults(func=cmd_z_relation)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
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
