"""
Command line front end.

Subcommands: quiver, nf, mul, basis, dims, verify <suite>.
Exit codes: 0 all checks pass, 1 verification failure, 2 usage error.
All output is deterministic for fixed arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import suites
from .algebra import Element
from .exprs import element_to_json_obj, element_to_text, normal_form
from .quiver import (Root, labels_by_text, parse_quiver_arg, root_of_seq,
                     tau_from_json)
from .scalars import domain_from_flag

# The most monomials `basis` lists, counted before any is built: listing
# 75,600 takes 1.3 s on a 2-CPU host.
MAX_BASIS = 100_000


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quiver", default="cycle(3)",
                   help="family like cycle(3)/path(2), inline JSON, or @file.json")
    p.add_argument("--n", type=_positive, default=2, help="number of strands")
    p.add_argument("--field", default="Q", help="Q or Fp:p (odd prime)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--tau", default=None,
                   help="inline JSON overriding the reversal map, e.g. '{\"0\":0,\"1\":2,\"2\":1}'")


def _read(flag: str, text: str, parse):
    """parse(text), its usage error prefixed with the flag and the text."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{flag} {text!r}: {exc}") from None


def _parse_block(quiver, text: str) -> Root:
    """A block is named by any residue sequence with its content, e.g. '0,1'."""
    by_text = labels_by_text(quiver.vertices)
    parts = [part.strip() for part in text.split(",")]
    return root_of_seq(quiver, [by_text.get(part, part) for part in parts])


def _count(text: str) -> int:
    """A non-negative integer argument."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    """A positive integer argument."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="klrcalc",
                                 description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quiver", help="validate and print a quiver")
    _add_common(p)

    p = sub.add_parser("nf", help="normal form of an element expression")
    _add_common(p)
    p.add_argument("expr")

    p = sub.add_parser("mul", help="product of two element expressions")
    _add_common(p)
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = sub.add_parser("basis", help="truncated basis of a block")
    _add_common(p)
    p.add_argument("--block", required=True, help="content as comma list, e.g. 0,1")
    p.add_argument("--bound", type=_count, default=2)
    p.add_argument("--tags", default="G", choices=("G", "both"))

    p = sub.add_parser("dims", help="graded dimension tables and halving")
    _add_common(p)
    p.add_argument("--bound", type=_count, default=3)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.add_argument("--bound", type=_count, default=None)
    p.add_argument("--block", default=None)
    p.add_argument("--fuzz", type=_positive, default=None,
                   help="fuzz count for the klr-relations suite (default 100)")
    p.add_argument("--max-pairs", type=_positive, default=None,
                   help="product pairs sampled per parity combination "
                        "(clifford, default 400)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:  # klrcalc raises every usage error as one
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    quiver = _read("--quiver", args.quiver, parse_quiver_arg)
    dom = _read("--field", args.field, domain_from_flag)
    tau_mapping = None if args.tau is None else _read(
        "--tau", args.tau, lambda text: tau_from_json(quiver.vertices, json.loads(text)))

    if args.command == "quiver":
        suites.make_context(quiver, args.n, dom, tau_mapping)  # checks the reversal map
        obj = quiver.to_json_obj()
        if args.format == "json":
            print(json.dumps(obj, sort_keys=True, indent=2))
        else:
            print(json.dumps(obj, sort_keys=True))
            print("cartan:", json.dumps([list(r) for r in quiver.cartan_matrix()]))
        return 0

    if args.command in ("nf", "mul"):
        ctx = suites.make_context(quiver, args.n, dom, tau_mapping)
        if args.command == "nf":
            x = normal_form(args.expr, ctx)
        else:
            x = normal_form(args.lhs, ctx) * normal_form(args.rhs, ctx)
        if args.format == "json":
            print(json.dumps(element_to_json_obj(x), indent=2))
        else:
            print(element_to_text(x))
        return 0

    if args.command == "basis":
        root = _parse_block(quiver, args.block)
        tags = ("G",) if args.tags == "G" else ("G", "G'")
        count = len(tags) * suites._block_work(root.height, args.bound, [root])
        if count > MAX_BASIS:
            raise ValueError(f"a basis of {count} monomials, past the cap of {MAX_BASIS}")
        ctx = suites.make_context(quiver, args.n, dom, tau_mapping)
        monos = ctx.enumerate_basis(root, args.bound, tags)
        table = sorted(Counter(map(ctx.mono_degree, monos)).items())
        if args.format == "json":
            obj = {
                "block": str(root),
                "count": len(monos),
                "monomials": [element_to_json_obj(
                    Element(ctx, {m: ctx.dom.one}))[0] for m in monos],
                "degree_table": {str(d): c for d, c in table},
            }
            print(json.dumps(obj, sort_keys=True, indent=2))
        else:
            for m in monos:
                print(element_to_text(Element(ctx, {m: ctx.dom.one})))
            print(f"count: {len(monos)}")
            for d, c in table:
                print(f"deg {d}: {c}")
        return 0

    if args.command == "dims":
        report = suites.run_dims(quiver, args.n, dom, bound=args.bound,
                                 seed=args.seed, tau_mapping=tau_mapping)
        suites.write_report(report, args.format, sys.stdout)
        return report.exit_code

    # verify
    name = args.suite
    for flag, value, suite in (("--block", args.block, "clifford"),
                               ("--fuzz", args.fuzz, "klr-relations"),
                               ("--max-pairs", args.max_pairs, "clifford")):
        if value is not None and name != suite:
            raise ValueError(f"the {name} suite takes no {flag}")
    kwargs = {"seed": args.seed, "tau_mapping": tau_mapping}
    # an unset --bound, --fuzz or --max-pairs takes the suite's default
    if args.bound is not None:
        kwargs["bound"] = args.bound
    if args.fuzz is not None:
        kwargs["fuzz"] = args.fuzz
    if args.max_pairs is not None:
        kwargs["max_pairs"] = args.max_pairs
    if args.block is not None:
        kwargs["block"] = _parse_block(quiver, args.block)
    report = suites.SUITES[name](quiver, args.n, dom, **kwargs)
    suites.write_report(report, args.format, sys.stdout)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
