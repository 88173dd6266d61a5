"""Command-line front end.

Subcommands cover the whole library: aut, ratio, classify, valuation,
enumerate, search, atlas, verify.  Output is plain text (default), JSON
lines, or CSV via --format; every number printed is exact, either a
decimal big integer or a reduced a/b.

Exit codes: 0 success; 1 usage or parse error; 2 computational bound
exceeded, which includes a verify that checks no shape at all (every
shape over the budget, or no p-group of order <= N); 3 formula/oracle
mismatch (verify only).  A reader that closes the output early
(``abelianaut enumerate ... | head``) ends the run quietly with 0: every
row it read was complete and exact.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator

from . import core, enumeration, oracle, search
from .arith import FactorizationOverflow, InvalidModulus
from .core import GroupShape, PGroupClassKind, PGroupShape
from .oracle import BudgetExceeded
from .search import UnrealizableReason

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND = 2
EXIT_MISMATCH = 3

_RATIONAL_RE = re.compile(r"\s*(\d+)\s*(?:/\s*(\d+)\s*)?$")
_FACTOR_RE = re.compile(r"\s*([zZcC]?)\s*(\d*)\s*([xX*]?)")


class ParseError(ValueError):
    """Bad group or rational syntax; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_group(text: str) -> GroupShape:
    """Parse expressions like ``Z2xZ3xZ9`` into a canonical GroupShape.

    Factors are ``Z<n>`` or ``C<n>`` separated by ``x`` or ``*``;
    whitespace between tokens is ignored and letters are
    case-insensitive.  The result is canonicalized (CRT split, sorted).
    """
    moduli: list[int] = []
    end, separator = 0, "x"
    while separator:
        m = _FACTOR_RE.match(text, end)
        letter, digits, separator = m.groups()
        if not letter:
            raise ParseError("expected a factor like 'Z12' or 'C12'", m.start(1))
        if not digits:
            raise ParseError("expected digits after the factor letter", m.start(2))
        moduli.append(int(digits))
        end = m.end()
    if end < len(text):
        raise ParseError(f"expected 'x' or '*' between factors, found {text[end]!r}", end)
    return core.canonicalize(moduli)


def parse_ratio_target(text: str) -> Fraction:
    """Parse ``a/b`` or a bare integer; must reduce to a positive value."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ParseError("expected a positive rational like '3' or '3/2'", 0)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("denominator must be nonzero", text.index("/") + 1)
    value = Fraction(num, den)
    if value <= 0:
        raise ParseError("target ratio must be positive", 0)
    return value


def _emit(rows: Iterable[dict], fmt: str, text_of: Callable[[dict], str]) -> None:
    """Write rows; a row's keys are its columns, in order, and CSV takes
    its header from the first row."""
    if fmt == "json":
        for row in rows:
            sys.stdout.write(json.dumps(row) + "\n")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for i, row in enumerate(rows):
            if i == 0:
                writer.writerow(row)
            writer.writerow(row.values())
    else:
        for row in rows:
            sys.stdout.write(text_of(row) + "\n")


def _ratio_str(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def cmd_aut(args: argparse.Namespace) -> int:
    shape = parse_group(args.group)
    row = {
        "group": str(shape),
        "order": shape.order,
        "aut_order": core.aut_order(shape),
    }
    _emit([row], args.format, lambda r: str(r["aut_order"]))
    return EXIT_OK


def cmd_ratio(args: argparse.Namespace) -> int:
    shape = parse_group(args.group)
    aut = core.aut_order(shape)
    r = Fraction(aut, shape.order)
    row = {
        "group": str(shape),
        "order": shape.order,
        "aut_order": aut,
        "ratio_num": r.numerator,
        "ratio_den": r.denominator,
    }
    _emit([row], args.format, lambda r: _ratio_str(r["ratio_num"], r["ratio_den"]))
    return EXIT_OK


def _class_label(block: PGroupShape) -> str:
    """The classify column: the kind, with e appended as ``(e)`` for Z_p x Z_{p^e}."""
    kind = core.classify(block)
    if kind is PGroupClassKind.ZP_TIMES_HIGHER:
        return f"{kind.value}({block.exponents[1]})"
    return kind.value


def cmd_classify(args: argparse.Namespace) -> int:
    shape = parse_group(args.group)
    if not shape.factors:
        print("trivial group: no primary components", file=sys.stderr)
        return EXIT_OK
    group = str(shape)
    rows = [{"group": group, "p": f.p, "class": _class_label(f)} for f in shape.factors]
    _emit(rows, args.format, lambda r: f"p={r['p']}: {r['class']}")
    return EXIT_OK


def cmd_valuation(args: argparse.Namespace) -> int:
    shape = parse_group(args.group)
    component = shape.component(args.p)
    if component is None:
        print(f"error: {args.p} is not a prime factor of |G| = {shape.order}",
              file=sys.stderr)
        return EXIT_USAGE
    v = core.p_valuation_of_aut(component)
    row = {"group": str(shape), "p": args.p,
           "n": v.n, "d": v.d, "c": v.c, "total": v.total}
    _emit([row], args.format,
          lambda r: f"n={r['n']} d={r['d']} c={r['c']} total={r['total']}")
    return EXIT_OK


def _enumerate_rows(max_order: int) -> Iterator[dict]:
    for order, blocks, aut in enumeration._sweep(max_order):
        g = gcd(aut, order)
        yield {"order": order, "group": str(GroupShape(blocks)), "aut_order": aut,
               "ratio_num": aut // g, "ratio_den": order // g}


def cmd_enumerate(args: argparse.Namespace) -> int:
    _emit(_enumerate_rows(args.max_order), args.format,
          lambda r: (f"{r['order']}\t{r['group']}\t{r['aut_order']}\t"
                     f"{_ratio_str(r['ratio_num'], r['ratio_den'])}"))
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    target = parse_ratio_target(args.target)
    verdict = search.realize(target, args.max_order, args.time_limit)
    if isinstance(verdict, GroupShape):
        row = {
            "verdict": "witness",
            "group": str(verdict),
            "order": verdict.order,
            "ratio_num": target.numerator,
            "ratio_den": target.denominator,
        }
        text = f"witness: {row['group']} (order {row['order']}), ratio {target}"
    elif isinstance(verdict, UnrealizableReason):
        row = {"verdict": "unrealizable", "reason": verdict.value}
        text = f"unrealizable ({verdict.value}): {verdict.explanation}"
    else:
        row = {"verdict": "not-found-within-bounds",
               "max_order_searched": verdict.max_order_searched}
        text = ("no witness among groups of order <= "
                f"{verdict.max_order_searched} (says nothing beyond)")
    _emit([row], args.format, lambda _: text)
    return EXIT_OK


def cmd_atlas(args: argparse.Namespace) -> int:
    atlas = search.ratio_atlas(args.max_order)
    rows = (
        {
            "ratio_num": r.numerator,
            "ratio_den": r.denominator,
            "order": g.order,
            "group": str(g),
        }
        for r, g in atlas.items()
    )
    _emit(rows, args.format,
          lambda r: (f"{_ratio_str(r['ratio_num'], r['ratio_den'])}\t"
                     f"{r['order']}\t{r['group']}"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    checked = 0
    skipped = 0
    mismatches: list[tuple[PGroupShape, int, int]] = []
    for shape in enumeration.pgroup_shapes_up_to(args.max_order):
        try:
            counted = oracle.count_automorphisms(shape, args.budget)
        except BudgetExceeded:
            skipped += 1
            continue
        expected = core.aut_order_p(shape)
        checked += 1
        if expected != counted:
            mismatches.append((shape, expected, counted))
    row = {"checked": checked, "skipped": skipped, "mismatches": len(mismatches)}
    _emit([row], args.format,
          lambda r: (f"checked={r['checked']} skipped={r['skipped']} "
                     f"mismatches={r['mismatches']}"))
    for shape, expected, counted in mismatches:
        print(f"MISMATCH {shape}: formula={expected} oracle={counted}",
              file=sys.stderr)
    if mismatches:
        return EXIT_MISMATCH
    if not checked:
        reason = (f"all {skipped} p-group shapes of order <= {args.max_order} "
                  f"exceed the budget of {args.budget} candidate tuples"
                  if skipped else f"no p-group has order <= {args.max_order}")
        print(f"error: nothing checked: {reason}", file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default: text)")
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--max-order", type=_positive_int, metavar="N",
                       default=search.DEFAULT_MAX_ORDER,
                       help="largest group order to sweep (default: %(default)s)")

    parser = _Parser(
        prog="abelianaut",
        description="Exact |Aut(G)| and |Aut(G)|/|G| for finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("aut", parents=[common],
                       help="print |Aut(G)| for a group expression")
    p.add_argument("group", help="group expression, e.g. Z2xZ3xZ9")
    p.set_defaults(handler=cmd_aut)

    p = sub.add_parser("ratio", parents=[common],
                       help="print |Aut(G)|/|G| as a reduced fraction")
    p.add_argument("group")
    p.set_defaults(handler=cmd_ratio)

    p = sub.add_parser("classify", parents=[common],
                       help="print the shape class of each primary component")
    p.add_argument("group")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser(
        "valuation", parents=[common],
        help="largest power of P dividing |Aut| of the P-primary component")
    p.add_argument("group")
    p.add_argument("-p", type=_positive_int, required=True, metavar="P",
                   help="prime whose primary component to analyze")
    p.set_defaults(handler=cmd_valuation)

    p = sub.add_parser("enumerate", parents=[common],
                       help="stream every abelian group of order 1..N")
    p.add_argument("--max-order", type=_positive_int, required=True, metavar="N")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser(
        "search", parents=[common, sweep],
        help="find a group with ratio exactly a/b, or prove there is none")
    p.add_argument("target", help="positive rational: 'a/b' or a bare integer")
    p.add_argument("--time-limit", type=_nonnegative_float, default=None,
                   metavar="SECONDS", help="optional wall-clock budget")
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("atlas", parents=[common, sweep],
                       help="map every achieved ratio to its smallest witness")
    p.set_defaults(handler=cmd_atlas)

    p = sub.add_parser(
        "verify", parents=[common],
        help="cross-check the formula against brute-force counting")
    p.add_argument("--max-order", type=_positive_int, default=64, metavar="N",
                   help="check every p-group shape of order <= N (default: 64)")
    p.add_argument("--budget", type=_positive_int, metavar="B",
                   default=oracle.DEFAULT_BUDGET,
                   help="max candidate tuples per shape (default: %(default)s)")
    p.set_defaults(handler=cmd_verify)

    return parser


@contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift Python's limit on int <-> str digits while the block runs.

    |Aut| of (Z2)^200 has about 12,000 digits, past the default limit of
    4300.  Releases before 3.10.7 have neither the limit nor the setter.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@_unlimited_int_digits()
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (ParseError, InvalidModulus) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FactorizationOverflow, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
