"""Command-line front end: coset computation, digit expansion, embedding,
level-wise arithmetic, and the law suites, all with reproducible seeds.

Every run echoes its configuration; identical configuration means
byte-identical output.  Exit codes: 0 on success and on a passing law
suite, 1 when a suite records counterexamples, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from . import suites
from .basefields import PadicRationals, QuadraticExtension, make_field
from .cosets import coset_of, hyperadd, hypersum_value_set
from .oag import value_to_json
from .limit import from_field, hensel_finder, limit_arith, sigma_embed, to_approximation
from .tower import project


# a digit window costs more than linear time in its length, and a digit
# costs more as p grows: at most MAX_DIGITS digits, and at most as many bits
# (digits times the bit length of p) as MAX_DIGITS digits at p = 13.  At
# those limits quadratic expand, limit-arith inv and embed each take under
# 0.3 s, at p = 13 and at p = 10^18 + 3 alike
MAX_DIGITS = 10_000


def _nonnegative(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _check_window(args):
    digits = getattr(args, "digits", None)
    if digits is None:
        return
    if digits > MAX_DIGITS:
        raise ValueError(f"--digits: must be <= {MAX_DIGITS}, got {digits}")
    budget = MAX_DIGITS * (13).bit_length()
    if digits * args.p.bit_length() > budget:
        raise ValueError(
            f"--digits {digits} at --p {args.p} exceeds the window of {budget} bits "
            f"(digits times the bit length of p)"
        )


def _emit(doc):
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _parse_element(field, text):
    # Python's parsers refuse an integer past its int-to-str conversion
    # limit with advice about an interpreter setting; name the limit here
    limit = sys.get_int_max_str_digits()
    if limit and re.search(rf"\d{{{limit + 1}}}", text):
        raise ValueError(f"malformed element: integers are limited to {limit:,} digits")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = text
    try:
        return field.element(payload)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"malformed element {text!r}: {exc}") from exc


def _seed_of(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HYPERTOWER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"bad HYPERTOWER_SEED: {env!r}") from exc
    return 0


def cmd_coset(args):
    field = make_field(args.field, args.p)
    x = _parse_element(field, args.x)
    c = coset_of(field, x, args.gamma)
    return {"coset": c.to_json(), "value": value_to_json(c.value())}


def cmd_hyperadd(args):
    field = make_field(args.field, args.p)
    x = _parse_element(field, args.x)
    y = _parse_element(field, args.y)
    s = hyperadd(coset_of(field, x, args.gamma), coset_of(field, y, args.gamma))
    return {"hypersum": s.to_json(), "values": hypersum_value_set(s).to_json()}


def cmd_project(args):
    field = make_field(args.field, args.p)
    x = _parse_element(field, args.x)
    upper = coset_of(field, x, args.frm)
    lower = project(upper, args.to)
    return {"input": upper.to_json(), "output": lower.to_json()}


def cmd_expand(args):
    field = make_field(args.field, args.p)
    x = _parse_element(field, args.x)
    return field.expand(x, args.digits).to_json()


def cmd_embed(args):
    ext = QuadraticExtension(args.p)
    base = PadicRationals(args.p)
    x = _parse_element(ext, args.x) if args.x else ext.generator()
    element = sigma_embed(x, hensel_finder(ext, base))
    # the shallow classes first, so each comes from the finder rather than
    # from projecting the deep class that the approximation materializes
    cosets = element.to_json(levels=min(args.digits, 4))["cosets"]
    appr = to_approximation(element, args.digits).to_json()
    return {"element": ext.to_json(x), "approximation": appr, "cosets": cosets}


def cmd_limit_arith(args):
    field = make_field(args.field, args.p)
    lhs = from_field(field, _parse_element(field, args.lhs))
    rhs = None
    if args.op in ("add", "mul"):
        if args.rhs is None:
            raise ValueError(f"--rhs is required for {args.op}")
        rhs = from_field(field, _parse_element(field, args.rhs))
    out, ledger = limit_arith(args.op, lhs, rhs)
    appr = to_approximation(out, args.digits).to_json()
    return {"approximation": appr, "ledger": ledger.to_json(delivered=args.digits)}


def cmd_laws(args):
    args.seed = _seed_of(args)  # echoed in the config as resolved
    reports = suites.REGISTRY[args.suite](
        random.Random(args.seed),
        field=args.field,
        p=args.p,
        samples=args.samples,
        height=args.height,
        digits=args.digits,
    )
    ok = all(r.passed for r in reports)
    return {"reports": [r.to_json() for r in reports], "pass": ok}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypertower",
        description="exact coset towers over valued fields, with law suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, gamma=False, digits=False):
        sp.add_argument("--field", default="rational",
                        choices=["rational", "function", "quadratic"])
        sp.add_argument("--p", type=int, default=5)
        if gamma:
            sp.add_argument("--gamma", type=int, required=True)
        if digits:
            sp.add_argument("--digits", type=int, default=8)

    sp = sub.add_parser("coset", help="class of an element at a level")
    common(sp, gamma=True)
    sp.add_argument("--x", required=True)
    sp.set_defaults(fn=cmd_coset)

    sp = sub.add_parser("hyperadd", help="multivalued sum descriptor of two classes")
    common(sp, gamma=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.set_defaults(fn=cmd_hyperadd)

    sp = sub.add_parser("project", help="lower a class to a smaller level")
    common(sp)
    sp.add_argument("--x", required=True)
    sp.add_argument("--from", dest="frm", type=int, required=True)
    sp.add_argument("--to", type=int, required=True)
    sp.set_defaults(fn=cmd_project)

    sp = sub.add_parser("expand", help="digit/Laurent expansion of an element")
    common(sp, digits=True)
    sp.add_argument("--x", required=True)
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("embed", help="embed an extension element as digits")
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--x", default=None)
    sp.add_argument("--digits", type=int, default=8)
    sp.set_defaults(fn=cmd_embed)

    sp = sub.add_parser("limit-arith", help="level-wise arithmetic with a ledger")
    common(sp, digits=True)
    sp.add_argument("--op", required=True, choices=["add", "mul", "neg", "inv"])
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", default=None)
    sp.set_defaults(fn=cmd_limit_arith)

    sp = sub.add_parser("laws", help="run a law suite; exit 1 on counterexamples")
    common(sp, digits=True)
    sp.add_argument("--suite", required=True, choices=list(suites.REGISTRY))
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--samples", type=_nonnegative, default=200)
    sp.add_argument("--height", type=_nonnegative, default=30)
    sp.set_defaults(fn=cmd_laws)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        _check_window(args)
        payload = args.fn(args)
        # inside the try: json.dumps refuses an int past Python's digit
        # limit with a ValueError, and a failed run writes no stdout
        config = {k: v for k, v in vars(args).items() if k != "fn"}
        _emit({"config": config, **payload})
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if payload.get("pass", True) else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
