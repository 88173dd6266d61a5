"""Command-line front end.

Subcommands cover the whole library: aut, ratio, classify, valuation,
enumerate, search, atlas, verify.  Output is plain text (default), JSON
lines, or CSV via --format; every number printed is exact, either a
decimal big integer or a reduced a/b.  Each subcommand imports only
what it runs: the oracle loads for verify alone, and the search module,
with fractions, for search and atlas alone.
verify walks the sieve only up to its budget, and counts the shapes past
it with :mod:`.counting`.

Exit codes: 0 success; 1 usage or parse error; 2 computational bound
exceeded, which includes running out of memory and a verify that checks
no shape at all (every shape over the budget, or no p-group of order
<= N); 3 formula/oracle
mismatch (verify only).  A reader that closes the output early
(``abelianaut enumerate ... | head``) ends the run quietly with 0: every
row it read was complete and exact.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from math import gcd

from . import arith, core, enumeration

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND = 2
EXIT_MISMATCH = 3

# Kept as text: re compiles a pattern on its first use and caches it, so a
# command that parses no group or ratio (verify, enumerate, atlas) compiles neither.
_RATIONAL_PATTERN = r"\s*(\d+)\s*(?:/\s*(\d+)\s*)?"
_FACTOR_PATTERN = r"\s*([zZcC]?)\s*(\d*)\s*([xX*]?)"


class ParseError(ValueError):
    """Bad group or rational syntax; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_group(text: str) -> core.GroupShape:
    """Parse expressions like ``Z2xZ3xZ9`` into a canonical GroupShape.

    Factors are ``Z<n>`` or ``C<n>`` separated by ``x`` or ``*``;
    whitespace between tokens is ignored and letters are
    case-insensitive.  The result is canonicalized (CRT split, sorted).
    """
    factor = re.compile(_FACTOR_PATTERN)
    moduli: list[int] = []
    end, separator = 0, "x"
    while separator:
        m = factor.match(text, end)
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
    from fractions import Fraction  # loaded only by the commands that take a ratio

    m = re.fullmatch(_RATIONAL_PATTERN, text)
    if m is None:
        raise ParseError("expected a positive rational like '3' or '3/2'", 0)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("denominator must be nonzero", m.start(2))
    value = Fraction(num, den)
    if value <= 0:
        raise ParseError("target ratio must be positive", 0)
    return value


def _emit(rows: Iterable[dict], fmt: str, text_of: Callable[[dict], str]) -> None:
    """Write rows; a row's keys are its columns, in order, and CSV takes
    its header from the first row."""
    if fmt == "json":
        import json  # loaded only for JSON output, as csv is below

        for row in rows:
            sys.stdout.write(json.dumps(row) + "\n")
    elif fmt == "csv":
        import csv  # loaded only for CSV output, which few invocations ask for

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
    g = gcd(aut, shape.order)
    row = {
        "group": str(shape),
        "order": shape.order,
        "aut_order": aut,
        "ratio_num": aut // g,
        "ratio_den": shape.order // g,
    }
    _emit([row], args.format, lambda r: _ratio_str(r["ratio_num"], r["ratio_den"]))
    return EXIT_OK


def _class_label(block: core.PGroupShape) -> str:
    """The classify column: the kind, with e appended as ``(e)`` for Z_p x Z_{p^e}."""
    kind = core.classify(block)
    if kind is core.PGroupClassKind.ZP_TIMES_HIGHER:
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
    for order, factors in arith.factorizations_up_to(max_order):
        for blocks, aut in enumeration._groups(False, factors):
            g = gcd(aut, order)
            yield {"order": order, "group": core.blocks_text(blocks), "aut_order": aut,
                   "ratio_num": aut // g, "ratio_den": order // g}


def cmd_enumerate(args: argparse.Namespace) -> int:
    _emit(_enumerate_rows(args.max_order), args.format,
          lambda r: (f"{r['order']}\t{r['group']}\t{r['aut_order']}\t"
                     f"{_ratio_str(r['ratio_num'], r['ratio_den'])}"))
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    from . import search  # loaded only here and by atlas, which sweep for ratios

    target = parse_ratio_target(args.target)
    verdict = search.realize(target, args.max_order, args.time_limit)
    if isinstance(verdict, core.GroupShape):
        row = {
            "verdict": "witness",
            "group": str(verdict),
            "order": verdict.order,
            "ratio_num": target.numerator,
            "ratio_den": target.denominator,
        }
        text = f"witness: {row['group']} (order {row['order']}), ratio {target}"
    elif isinstance(verdict, search.UnrealizableReason):
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
    from . import search

    rows = ({"ratio_num": num, "ratio_den": den, "order": order,
             "group": core.blocks_text(blocks)}
            for num, den, order, blocks in search._first_witnesses(args.max_order))
    _emit(rows, args.format,
          lambda r: (f"{_ratio_str(r['ratio_num'], r['ratio_den'])}\t"
                     f"{r['order']}\t{r['group']}"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle  # loaded only here: no other subcommand counts with it

    checked = 0
    skipped = 0
    mismatches: list[tuple[core.PGroupShape, int, int]] = []
    top = min(args.max_order, args.budget)
    for _, factors in arith.factorizations_up_to(top):
        if len(factors) != 1:
            continue
        for (shape,), expected in enumeration._groups(False, factors):
            try:
                counted = oracle.count_automorphisms(shape, args.budget)
            except oracle.BudgetExceeded:
                skipped += 1
                continue
            checked += 1
            if expected != counted:
                mismatches.append((shape, expected, counted))
    if top < args.max_order:
        # A shape of order above the budget has |G|^rank >= |G| > budget, so
        # the oracle would refuse it: count those shapes and build none.
        from . import counting  # loaded only when a count runs

        skipped += counting.pgroup_shapes_between(top, args.max_order)
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


def _at_least(convert: Callable[[str], float], low: int, noun: str,
              text: str) -> float:
    try:
        value = convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {noun} >= {low}") from None
    if not value >= low:  # also refuses NaN
        raise argparse.ArgumentTypeError(f"must be >= {low}")
    return value


_positive_int = partial(_at_least, int, 1, "an integer")
_nonnegative_float = partial(_at_least, float, 0, "a number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelianaut",
        description="Exact |Aut(G)| and |Aut(G)|/|G| for finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary in (
        ("aut", cmd_aut, "print |Aut(G)| for a group expression"),
        ("ratio", cmd_ratio, "print |Aut(G)|/|G| as a reduced fraction"),
        ("classify", cmd_classify, "print the shape class of each primary component"),
        ("valuation", cmd_valuation,
         "largest power of P dividing |Aut| of the P-primary component"),
        ("enumerate", cmd_enumerate, "stream every abelian group of order 1..N"),
        ("search", cmd_search,
         "find a group with ratio exactly a/b, or prove there is none"),
        ("atlas", cmd_atlas, "map every achieved ratio to its smallest witness"),
        ("verify", cmd_verify, "cross-check the formula against brute-force counting"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text",
                       help="output format (default: text)")
        p.set_defaults(handler=handler)

    # Each command's own arguments, after --format.
    command = sub.choices
    for name in ("aut", "ratio", "classify", "valuation"):
        command[name].add_argument("group", help="group expression, e.g. Z2xZ3xZ9")
    command["valuation"].add_argument(
        "-p", type=_positive_int, required=True, metavar="P",
        help="prime whose primary component to analyze")
    command["enumerate"].add_argument(
        "--max-order", type=_positive_int, required=True, metavar="N")
    for name in ("search", "atlas"):
        command[name].add_argument(
            "--max-order", type=_positive_int, metavar="N",
            default=10**4,  # search.DEFAULT_MAX_ORDER (tested), not imported
            help="largest group order to sweep (default: %(default)s)")
    command["search"].add_argument(
        "target", help="positive rational: 'a/b' or a bare integer")
    command["search"].add_argument(
        "--time-limit", type=_nonnegative_float, default=None, metavar="SECONDS",
        help="optional wall-clock budget")
    command["verify"].add_argument(
        "--max-order", type=_positive_int, default=64, metavar="N",
        help="check every p-group shape of order <= N (default: %(default)s)")
    command["verify"].add_argument(
        "--budget", type=_positive_int, metavar="B",
        default=10**6,  # oracle.DEFAULT_BUDGET (tested), not imported here
        help="max candidate tuples per shape (default: %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    # |Aut| of (Z2)^200 has about 12,000 digits, past Python's default
    # limit of 4300 on int <-> str conversion.
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        if exc.code == 2:  # argparse's usage error; the contract here is 1
            raise SystemExit(EXIT_USAGE) from None
        raise
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (ParseError, arith.InvalidModulus) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except arith.FactorizationOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BOUND
    finally:
        sys.set_int_max_str_digits(saved)
