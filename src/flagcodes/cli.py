"""Command-line toolkit: construct, report, verify, bounds, erase, decode,
simulate.

Exit codes: 0 success / verification PASS, 1 verification failure, 2 usage or
input error (a code file whose flags repeat, so that a decode is ambiguous,
included), 3 decode FAILURE.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .construction import (
    ConstructionError,
    Flag,
    FlagCode,
    SandwichParams,
    build_code,
    code_from_dict,
    code_from_json,
    code_to_json,
)
from .decoder import (
    DECODED,
    AmbiguousDecodeError,
    decode,
    erase,
    received_from_json,
    received_to_json,
    simulate,
)
from .fields import FieldError, field_new, parse_field_spec
from .linalg import LinAlgError, parse_matrices, rowspace
from .metrics import aq_exact, bound_verdict, classify, max_distance, partial_spread_bound
from .verify import FAIL, CheckResult, verify_code

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DECODE_FAIL = 3


class CliError(Exception):
    pass


def _parse_ints(text, flag: str):
    """The comma-separated integers of `flag`'s value, None if it is not
    given; a token that is no integer is a usage error naming both."""
    if not text:
        return None
    out = []
    for token in text.split(","):
        try:
            out.append(int(token))
        except ValueError:
            raise CliError(f"{flag}: {token!r} is not an integer") from None
    return tuple(out)


def _build_field(args):
    modulus = _parse_ints(getattr(args, "modulus", None), "--modulus")
    return field_new(args.p, args.m, modulus)


def _load_code(path: str) -> FlagCode:
    with open(path) as fh:
        return code_from_json(fh.read())


def _load_code_or_flags(path: str):
    """Code JSON (with params) or a bare flag-list fixture.

    Fixture format: {"ambient": n, "flags": [[matrix-text per level], ...]},
    optionally with "field": FiniteField.spec(), the field every matrix is
    parsed over. Without it each matrix's q gives the default-modulus field.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliError(f"{path}: the top level is not a JSON object")
    if "params" in doc:
        return code_from_dict(doc)
    try:
        field = parse_field_spec(doc["field"]) if "field" in doc else None
        if not isinstance(doc["flags"], list):
            raise TypeError("flags is not a list")
        flags = [
            Flag(map(rowspace, parse_matrices(levels, field, f"flag {f} level")))
            for f, levels in enumerate(doc["flags"], start=1)
        ]
    except (KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"malformed flag fixture {path}: {exc}") from exc
    return flags


def _emit(args, doc: dict, text_lines=None):
    """`doc` as JSON, or `text_lines`, by default one "key: value" line a key."""
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        if text_lines is None:
            text_lines = [f"{k}: {v}" for k, v in doc.items()]
        for line in text_lines:
            print(line)


def cmd_construct(args) -> int:
    field = _build_field(args)
    params = SandwichParams(field, args.k1, args.r, _parse_ints(args.prim_poly, "--prim-poly"))
    code = build_code(params)
    payload = code_to_json(code)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        print(payload)
    poly = ",".join(str(c) for c in params.prim_poly)
    print(
        f"n={params.n} |C|={len(code)} q={params.q} k1={params.k1} "
        f"r={params.r} prim_poly={poly}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_report(args) -> int:
    code = _load_code_or_flags(args.code)
    report = classify(code)
    _emit(args, report.to_dict())
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_enumeration < 0:
        raise CliError(f"--max-enumeration {args.max_enumeration} must be >= 0")
    try:
        code = _load_code(args.code)
        results = verify_code(code, args.max_enumeration)
    except (ConstructionError, LinAlgError, FieldError) as exc:
        results = [CheckResult("load", FAIL, str(exc))]
        lines = [f"FAIL load: {exc}"]
    else:
        lines = [
            f"{r.status:7s} {r.name}" + (f"  ({r.detail})" if r.detail else "")
            for r in results
        ]
    _emit(args, {"checks": [r.to_dict() for r in results]}, lines)
    return EXIT_VERIFY_FAIL if any(r.status == FAIL for r in results) else EXIT_OK


def cmd_bounds(args) -> int:
    if args.code:
        code = _load_code(args.code)
        p = code.params
        q, n, k = p.q, p.n, p.k1
    else:
        if args.n is None or args.k is None:
            raise CliError("bounds needs --code or both --n and --k")
        field = _build_field(args)
        q, n, k = field.q, args.n, args.k
    # Every bound printed is below q^n: refuse an n whose q^n has more
    # digits than Python converts an int to text, before any is computed.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and n > 0 and n * math.log10(q) >= limit:
        raise CliError(
            f"n = {n} is too large for q = {q}: q^n has more than {limit} digits"
        )
    exact = aq_exact(q, n, k)
    doc = {
        "q": q,
        "n": n,
        "k": k,
        "lemma21": partial_spread_bound(q, n, k),
        "lemma22": exact if exact is not None else "n/a",
        "D_n": max_distance(n),
    }
    if args.code:
        verdict = bound_verdict(len(code), q, n, k)
        doc["cardinality"] = len(code)
        doc["satisfied"] = verdict["satisfied"]
        doc["equality"] = verdict["equality"]
    _emit(args, doc)
    return EXIT_OK


def cmd_erase(args) -> int:
    code = _load_code(args.code)
    if not (1 <= args.codeword <= len(code)):
        raise CliError(f"codeword index {args.codeword} outside [1, {len(code)}]")
    erasures = _parse_ints(args.erasures, "--erasures")
    if erasures is None:
        erasures = (0,) * (code.ambient - 1)
    received = erase(code.flags[args.codeword - 1], erasures, args.seed)
    payload = received_to_json(received)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        print(payload)
    return EXIT_OK


def cmd_decode(args) -> int:
    code = _load_code(args.code)
    with open(args.received) as fh:
        received = received_from_json(fh.read(), code.params.field)
    outcome = decode(code, received)
    _emit(args, outcome.to_dict())
    return EXIT_OK if outcome.status == DECODED else EXIT_DECODE_FAIL


def cmd_simulate(args) -> int:
    code = _load_code(args.code)
    report = simulate(code, args.trials, args.seed, args.budget)
    _emit(args, report.to_dict())
    return EXIT_OK


def _add_field_args(sub):
    sub.add_argument("--p", type=int, default=2, help="prime characteristic")
    sub.add_argument("--m", type=int, default=1, help="extension degree")
    sub.add_argument("--modulus", help="field modulus coefficients, comma-separated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcodes",
        description="Sandwich full flag codes: construction, verification, decoding",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        sub = subs.add_parser(name, help=help_)
        sub.set_defaults(func=func)
        sub.add_argument(
            "--format", choices=("json", "text"), default="json", help="output format"
        )
        return sub

    sub = add("construct", cmd_construct, "build a code and write its JSON")
    _add_field_args(sub)
    sub.add_argument("--k1", type=int, required=True)
    sub.add_argument("--r", type=int, default=0)
    sub.add_argument("--prim-poly", dest="prim_poly", help="comma-separated coefficients, low to high, monic")
    sub.add_argument("--out", help="output file (stdout if omitted)")

    sub = add("report", cmd_report, "distance/classification report for a code file")
    sub.add_argument("--code", required=True)

    sub = add("verify", cmd_verify, "run the invariant suite on a code file")
    sub.add_argument("--code", required=True)
    sub.add_argument(
        "--max-enumeration",
        type=int,
        default=10**6,
        help="most points of PG(n-1, q) that spread maximality enumerates; "
        "above it the check is SKIPPED",
    )

    sub = add("bounds", cmd_bounds, "cardinality bounds for (q, n, k) or a code file")
    _add_field_args(sub)
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--code")

    sub = add("erase", cmd_erase, "apply erasures to a codeword, write the received file")
    sub.add_argument("--code", required=True)
    sub.add_argument("--codeword", type=int, required=True, help="1-based codeword index")
    sub.add_argument("--erasures", help="comma-separated e_1..e_{n-1}")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="output file (stdout if omitted)")

    sub = add("decode", cmd_decode, "decode a received-sequence file")
    sub.add_argument("--code", required=True)
    sub.add_argument("--received", required=True)

    sub = add("simulate", cmd_simulate, "seeded Monte-Carlo decode trials")
    sub.add_argument("--code", required=True)
    sub.add_argument("--trials", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget", type=int, help="override the correctable budget")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, AmbiguousDecodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
