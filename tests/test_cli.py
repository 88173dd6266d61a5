import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abelianaut
from abelianaut import GroupShape, arith, cli, enumeration
from abelianaut.cli import ParseError, main, parse_group, parse_ratio_target
from helpers import package_imports, pgroup_records


# ------------------------------------------------------------ group parsing

def test_parse_group_examples():
    assert parse_group("Z2xZ3xZ9") == GroupShape.from_exponents({2: [1], 3: [1, 2]})
    assert parse_group("z12") == GroupShape.from_exponents({2: [2], 3: [1]})
    assert parse_group("Z1") == GroupShape()


def test_parse_group_separators_case_whitespace():
    expected = GroupShape.from_exponents({2: [1, 2], 5: [1]})
    assert parse_group("Z2 x C4 * z5") == expected
    assert parse_group(" c2X Z4x C5 ") == expected


_FACTOR = "expected a factor like 'Z12' or 'C12'"
_DIGITS = "expected digits after the factor letter"


def _separator(found: str) -> str:
    return f"expected 'x' or '*' between factors, found {found!r}"


_GRAMMAR = [  # text -> the (message, position) of its error, or its parsed shape
    ("Q5", (_FACTOR, 0)),
    ("", (_FACTOR, 0)),
    (" ", (_FACTOR, 1)),
    ("Z", (_DIGITS, 1)),
    ("Zx2", (_DIGITS, 1)),
    ("Z2x", (_FACTOR, 3)),
    ("Z2xx", (_FACTOR, 3)),
    ("Z2 x ", (_FACTOR, 5)),
    ("Z 2 3", (_separator("3"), 4)),
    ("Z12Z3", (_separator("Z"), 3)),
    ("Z2,Z3", (_separator(","), 2)),
    # whitespace and digits are Unicode's: str.isspace() and str.isdecimal()
    ("Z2\u3000xZ3", "Z2 x Z3"),
    ("Z\u0663", "Z3"),
    ("\xa0c2\tX z\u0664\n", "Z2 x Z4"),
    ("Z\uff12", "Z2"),
]


@pytest.mark.parametrize("text, expected", _GRAMMAR, ids=[repr(t) for t, _ in _GRAMMAR])
def test_parse_group_errors_carry_position(text, expected):
    if isinstance(expected, str):
        assert str(parse_group(text)) == expected
        return
    message, position = expected
    with pytest.raises(ParseError) as err:
        parse_group(text)
    assert (str(err.value), err.value.position) == (
        f"{message} (at position {position})", position)


def test_parse_group_roundtrips_to_normal_form():
    for text in ("Z2xZ3xZ9", "z9 * c2 x Z3", "Z18 x Z3"):
        assert str(parse_group(text)) == "Z2 x Z3 x Z9"
    # Z54 is cyclic: its 3-part stays one factor Z27
    assert str(parse_group("Z54")) == "Z2 x Z27"


# --------------------------------------------------------- rational parsing

_RATIONAL = "expected a positive rational like '3' or '3/2'"
_NONZERO = "denominator must be nonzero"
_POSITIVE = "target ratio must be positive"

_RATIOS = [  # text -> the (message, position) of its error, or its value
    ("3", Fraction(3)),
    ("3/2", Fraction(3, 2)),
    ("6/4", Fraction(3, 2)),
    (" 6 / 4 ", Fraction(3, 2)),
    ("\u0663/\u0662", Fraction(3, 2)),
    ("0", (_POSITIVE, 0)),
    ("0/5", (_POSITIVE, 0)),
    ("-3", (_RATIONAL, 0)),
    ("1.5", (_RATIONAL, 0)),
    ("a/b", (_RATIONAL, 0)),
    ("", (_RATIONAL, 0)),
    ("3/", (_RATIONAL, 0)),
    # a zero denominator is placed at its digits
    ("3/0", (_NONZERO, 2)),
    ("3/ 0", (_NONZERO, 3)),
    ("3 /  00", (_NONZERO, 5)),
]


@pytest.mark.parametrize("text, expected", _RATIOS, ids=[repr(t) for t, _ in _RATIOS])
def test_parse_ratio_target(text, expected):
    if isinstance(expected, Fraction):
        assert parse_ratio_target(text) == expected
        return
    message, position = expected
    with pytest.raises(ParseError) as err:
        parse_ratio_target(text)
    assert (str(err.value), err.value.position) == (
        f"{message} (at position {position})", position)


# ------------------------------------------------------------- subcommands

def test_aut_text(capsys):
    assert main(["aut", "Z2xZ3xZ9"]) == 0
    assert capsys.readouterr().out == "108\n"


def test_aut_prints_counts_past_the_int_str_digit_limit(capsys):
    # |Aut((Z2)^200)| = |GL(200, 2)| has 12,041 digits; Python refuses to
    # print ints of more than 4300 by default.
    assert main(["aut", "x".join(["Z2"] * 200)]) == 0
    out = capsys.readouterr().out
    expected = prod(2**200 - 2**k for k in range(200))
    saved = sys.get_int_max_str_digits()
    assert saved != 0  # main put the limit back
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{expected}\n"
        assert len(out) == 12_042
    finally:
        sys.set_int_max_str_digits(saved)


def test_main_parses_bounds_past_the_int_str_digit_limit(capsys):
    # The limit is lifted around argument parsing too, so int() takes a
    # --max-order of 5,001 digits under the interpreter's default limit.
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        assert main(["search", "1/4", "--max-order", "1" + "0" * 5000]) == 0
        assert capsys.readouterr().out.startswith("unrealizable")
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("argv, code", [
    (["aut", "Z2"], 0),
    (["verify", "--budget", "0"], 1),  # argparse exits
    (["aut", "Zx"], 1),  # ParseError
    (["aut", "Z0"], 1),  # InvalidModulus
    (["aut", "Z10000000000000"], 2),  # FactorizationOverflow
    (["verify", "--max-order", "1"], 2),  # nothing checked
])
def test_main_restores_the_int_str_digit_limit_on_every_exit(argv, code, capsys):
    default = sys.int_info.default_max_str_digits
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(default)
    try:
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert sys.get_int_max_str_digits() == default
    finally:
        sys.set_int_max_str_digits(saved)


def test_ratio_text_integer_and_fraction(capsys):
    assert main(["ratio", "Z2xZ5xZ25"]) == 0
    assert capsys.readouterr().out == "8\n"
    assert main(["ratio", "Z2"]) == 0
    assert capsys.readouterr().out == "1/2\n"


def test_ratio_json_fields(capsys):
    assert main(["ratio", "Z2xZ3xZ9", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row == {
        "group": "Z2 x Z3 x Z9",
        "order": 54,
        "aut_order": 108,
        "ratio_num": 2,
        "ratio_den": 1,
    }


def test_classify_text(capsys):
    assert main(["classify", "Z2xZ3xZ9"]) == 0
    assert capsys.readouterr().out == "p=2: cyclic\np=3: zp-times-higher(2)\n"


def test_classify_csv(capsys):
    assert main(["classify", "Z4xZ2", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "group,p,class"
    assert out[1] == "Z2 x Z4,2,zp-times-higher(2)"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_classify_trivial_group_has_no_rows(capsys, fmt):
    assert main(["classify", "Z1", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "trivial group: no primary components\n"


def _label_from_exponents(exps: tuple[int, ...]) -> str:
    """The classify label, derived from the exponents alone."""
    if len(exps) == 1:
        return "cyclic"
    if exps == (1, 1):
        return "elementary-rank-2"
    if len(exps) == 2 and exps[0] == 1:
        return f"zp-times-higher({exps[1]})"
    if exps == (1, 1, 1):
        return "elementary-rank-3"
    return "general"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_classify_row_is_the_label_of_the_exponents(fmt):
    # One call per k classifies the group made of the k-th shape of every
    # prime, so every p-group shape of order <= 4096 is one row somewhere.
    by_prime: dict[int, list] = {}
    for shape, _ in pgroup_records(4096):
        by_prime.setdefault(shape.p, []).append(shape)
    assert sum(map(len, by_prime.values())) == 938
    for k in range(len(by_prime[2])):
        blocks = tuple(shapes[k] for shapes in by_prime.values() if k < len(shapes))
        group = str(GroupShape(blocks))
        rows = [(b.p, _label_from_exponents(b.exponents)) for b in blocks]
        want = {
            "text": "".join(f"p={p}: {label}\n" for p, label in rows),
            "json": "".join(json.dumps({"group": group, "p": p, "class": label}) + "\n"
                            for p, label in rows),
            "csv": "group,p,class\n" + "".join(f"{group},{p},{label}\n"
                                               for p, label in rows),
        }[fmt]
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["classify", group, "--format", fmt]) == 0
        assert out.getvalue() == want, group


def test_valuation_text(capsys):
    assert main(["valuation", "Z12", "-p", "2"]) == 0
    assert capsys.readouterr().out == "n=1 d=0 c=1 total=1\n"


def test_valuation_rejects_non_factor_prime(capsys):
    assert main(["valuation", "Z12", "-p", "5"]) == 1
    assert "not a prime factor" in capsys.readouterr().err


def test_enumerate_counts_and_order(capsys):
    assert main(["enumerate", "--max-order", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "1\tZ1\t1\t1"
    assert lines[-1] == "4\tZ2 x Z2\t6\t3/2"


def test_enumerate_csv_header(capsys):
    assert main(["enumerate", "--max-order", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "order,group,aut_order,ratio_num,ratio_den"
    assert lines[1] == "1,Z1,1,1,1"
    assert lines[2] == "2,Z2,1,1,2"


_SEARCH_OUTPUT = {
    ("1/2", "text"): "witness: Z2 (order 2), ratio 1/2\n",
    ("1/2", "json"): ('{"verdict": "witness", "group": "Z2", "order": 2, '
                      '"ratio_num": 1, "ratio_den": 2}\n'),
    ("1/2", "csv"): "verdict,group,order,ratio_num,ratio_den\nwitness,Z2,2,1,2\n",
    ("1/4", "text"): ("unrealizable (non-squarefree-denominator): "
                      "the reduced denominator has a squared prime factor\n"),
    ("1/4", "json"): ('{"verdict": "unrealizable", '
                      '"reason": "non-squarefree-denominator"}\n'),
    ("1/4", "csv"): "verdict,reason\nunrealizable,non-squarefree-denominator\n",
    ("3", "text"): ("unrealizable (odd-prime-target): "
                    "no odd prime is realizable as a ratio\n"),
    ("3", "json"): '{"verdict": "unrealizable", "reason": "odd-prime-target"}\n',
    ("3", "csv"): "verdict,reason\nunrealizable,odd-prime-target\n",
    ("10", "text"): "no witness among groups of order <= 30 (says nothing beyond)\n",
    ("10", "json"): ('{"verdict": "not-found-within-bounds", '
                     '"max_order_searched": 30}\n'),
    ("10", "csv"): "verdict,max_order_searched\nnot-found-within-bounds,30\n",
}


@pytest.mark.parametrize("target,fmt", sorted(_SEARCH_OUTPUT))
def test_search_every_verdict_in_every_format(capsys, target, fmt):
    bound = ["--max-order", "30"] if target == "10" else []
    assert main(["search", target, *bound, "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out == _SEARCH_OUTPUT[target, fmt]
    assert captured.err == ""


@pytest.mark.parametrize("command,default", [
    ("search", "(default: 10000)"), ("atlas", "(default: 10000)"),
    ("verify", "(default: 1000000)")])
def test_help_shows_bound_defaults(capsys, monkeypatch, command, default):
    monkeypatch.setenv("COLUMNS", "200")  # keep each option on one line
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert default in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    "", "aut", "ratio", "classify", "valuation", "enumerate", "search", "atlas",
    "verify"], ids=lambda c: c or "top")
def test_every_help_formats(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: abelianaut")
    if command in ("aut", "ratio", "classify", "valuation"):
        assert "group expression, e.g. Z2xZ3xZ9" in out


def test_each_usage_names_its_arguments_in_order(capsys):
    # Tokens, not bytes: how argparse wraps a usage line varies by version.
    usage = {
        "aut": "--format {text,json,csv} group",
        "ratio": "--format {text,json,csv} group",
        "classify": "--format {text,json,csv} group",
        "valuation": "--format {text,json,csv} -p P group",
        "enumerate": "--format {text,json,csv} --max-order N",
        "search": "--format {text,json,csv} --max-order N --time-limit SECONDS target",
        "atlas": "--format {text,json,csv} --max-order N",
        "verify": "--format {text,json,csv} --max-order N --budget B",
    }
    for command, arguments in usage.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        first = capsys.readouterr().out.split("\n\n")[0]
        assert re.sub(r"[][]", " ", first).split() == [
            "usage:", "abelianaut", command, "-h", *arguments.split()], command


_ODD_INTEGER = ("unrealizable (odd-integer-target): the only odd integers "
                "realizable are 1 (Z1) and 21 (Z2 x Z2 x Z2)\n")


def test_search_strong_pseudoprime_is_not_called_prime(capsys):
    # psi_12 = 399165290221 * 798330580441 passes the strong test to the
    # first 12 prime bases, which alone would call it an odd prime.
    assert main(["search", "318665857834031151167461", "--max-order", "10"]) == 0
    assert capsys.readouterr() == (_ODD_INTEGER, "")


def test_search_target_past_the_primality_bound_is_decided(capsys):
    # psi_13 is past the bound of is_prime and no base prime divides it, so
    # is_prime cannot decide it; odd and neither 1 nor 21, it is unrealizable
    # either way, and exits 0.
    assert main(["search", "3317044064679887385961981"]) == 0
    assert capsys.readouterr() == (_ODD_INTEGER, "")


def test_search_decides_a_target_past_the_primality_bound_with_a_small_factor(capsys):
    # psi_13 + 2 = 3 * ...: not an odd prime, but an odd integer other than 21
    assert main(["search", "3317044064679887385961983", "--max-order", "10"]) == 0
    assert capsys.readouterr() == (_ODD_INTEGER, "")


def test_search_denominator_past_the_factorization_bound_exits_2(capsys):
    # 10**12 + 39 is prime, and the squarefree screen must factor it first.
    # ROADMAP item 4 (factoring past trial division) changes this on purpose.
    assert main(["search", "1/1000000000039", "--max-order", "10"]) == 2
    assert capsys.readouterr() == ("", "error: 1000000000039 exceeds the factorization "
                                       "bound 1000000**2 = 1000000000000\n")


def test_search_rejects_bad_targets(capsys):
    assert main(["search", "0"]) == 1
    assert main(["search", "-2"]) == 1
    assert main(["search", "x/y"]) == 1


def test_atlas_max_order_4(capsys):
    assert main(["atlas", "--max-order", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["1\t1\tZ1", "1/2\t2\tZ2", "2/3\t3\tZ3", "3/2\t4\tZ2 x Z2"]


def test_verify_counts_up_to_order_300_within_budget_300(capsys):
    # Checks every cyclic p-group up to Z293 and the five rank-2 shapes
    # whose tuple spaces fit the budget.
    assert main(["verify", "--max-order", "300", "--budget", "300"]) == 0
    assert capsys.readouterr().out == "checked=84 skipped=73 mismatches=0\n"


@pytest.mark.parametrize("argv", [["--budget", "1"], ["--max-order", "1"]])
def test_verify_that_checks_nothing_exits_2(capsys, argv):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("checked=0 ")
    assert captured.err.startswith("error: nothing checked")
    assert len(captured.err.splitlines()) == 1


def test_verify_json(capsys):
    assert main(["verify", "--max-order", "8", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["mismatches"] == 0
    assert row["checked"] > 0


def test_verify_reports_and_exits_3_on_mismatch(capsys, monkeypatch):
    # verify checks the block table's counts, so a wrong count goes in there;
    # one cache holds the full and the ratio-minimal table, so clearing it
    # clears both
    enumeration._blocks.cache_clear()
    monkeypatch.setattr(enumeration, "aut_order_p", lambda shape: 1)
    try:
        assert main(["verify", "--max-order", "4"]) == 3
        assert main(["atlas", "--max-order", "4"]) == 0  # fills the minimal table
    finally:
        enumeration._blocks.cache_clear()  # no later test reads a count of 1
    captured = capsys.readouterr()
    # |Aut(Z2)| is 1, so only the other three mismatch, in order of |G| as
    # enumerate prints them
    assert captured.out.startswith("checked=4 skipped=0 mismatches=3\n")
    assert captured.err == ("MISMATCH Z3: formula=1 oracle=2\n"
                            "MISMATCH Z4: formula=1 oracle=2\n"
                            "MISMATCH Z2 x Z2: formula=1 oracle=6\n")


def test_parse_error_exit_code(capsys):
    assert main(["aut", "Q5"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["Z\u00b2", "Z1\u00b2", "Z\u00b9\u00b2"])
def test_superscript_digits_are_a_parse_error(capsys, text):
    # str.isdigit accepts superscripts, but int() rejects them.
    assert main(["aut", text]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def _exit_code(argv):
    """main's exit code, with its output discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects some texts, e.g. "-x"
            return exc.code


_FUZZ = settings(derandomize=True, deadline=None, max_examples=150)
# Any text, and text over the parsers' own alphabet plus digits that int()
# rejects (superscripts) or accepts (Arabic-Indic).
_TEXT = st.text() | st.text(alphabet="zZcCxX*/ -0123456789\u00b2\u0663")


@_FUZZ
@given(text=_TEXT, command=st.sampled_from(["aut", "ratio"]))
def test_fuzz_group_parser_through_main(text, command):
    assert _exit_code([command, text]) in (0, 1, 2)


@_FUZZ
@given(text=_TEXT)
def test_fuzz_ratio_parser_through_main(text):
    assert _exit_code(["search", text, "--max-order", "50"]) in (0, 1, 2)


def test_invalid_modulus_exit_code(capsys):
    assert main(["aut", "Z0"]) == 1


def test_factorization_overflow_exit_code(capsys):
    assert main(["aut", "Z10000000000000"]) == 2
    assert "error:" in capsys.readouterr().err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(n):
        raise MemoryError
    monkeypatch.setattr(arith, "_smallest_prime_factors", exhausted)
    assert main(["verify", "--max-order", "64"]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing required --max-order
    assert exc.value.code == 1


def test_search_time_limit_nan_is_a_usage_error(capsys):
    # nan >= 0 is False, so a NaN budget would set a deadline never reached.
    for value in ("nan", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "9", "--time-limit", value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert err.splitlines()[-1] == (
            "abelianaut search: error: argument --time-limit: must be >= 0")
    assert main(["search", "3/2", "--time-limit", "inf"]) == 0  # inf: no limit


@pytest.mark.parametrize("argv", [
    ["enumerate", "--max-order", "0"],
    ["atlas", "--max-order", "0"],
    ["search", "3", "--max-order", "0"],
    ["verify", "--max-order", "0"],
    ["verify", "--budget", "0"],
    ["valuation", "Z2", "-p", "0"],
], ids=" ".join)
def test_integer_options_refuse_values_below_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert err.splitlines()[-1] == (
        f"abelianaut {argv[0]}: error: argument {argv[-2]}: must be >= 1")


@pytest.mark.parametrize("argv", [
    ["search", "3", "--max-order", "x"],
    ["search", "3", "--time-limit", "x"],
    ["verify", "--budget", "1.5"],
    ["valuation", "Z4", "-p", "x"],
], ids=" ".join)
def test_option_values_that_do_not_parse_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    bound = ("a number >= 0" if argv[-2] == "--time-limit"
             else "an integer >= 1")
    assert err.startswith("usage:")
    assert err.splitlines()[-1] == (
        f"abelianaut {argv[0]}: error: argument {argv[-2]}: must be {bound}")
    assert re.search(r"\b_\w", err) is None  # no private name such as _positive_int


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_closed_output_pipe_exits_quietly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(abelianaut.__file__).parents[1]), env.get("PYTHONPATH", "")])
    # enumerate writes about 100 KB of rows: more than a pipe buffers, so the
    # writer is still running when the reader goes away.  Neither stream to
    # 10^12 could finish in any time, so each ends only if the sieve behind
    # it grows as the sweep goes and each row is written as it is reached.
    for argv, first_line in [
        (["enumerate", "--max-order", "2000"], b"1\tZ1\t1\t1\n"),
        (["enumerate", "--max-order", "1000000000000"], b"1\tZ1\t1\t1\n"),
        (["atlas", "--max-order", "1000000000000"], b"1\t1\tZ1\n"),
    ]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "abelianaut", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == first_line
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert b"Traceback" not in err
        assert err == b""
        assert proc.returncode == 0


def test_package_imports_with_the_standard_library_alone():
    # -S leaves site-packages off sys.path, so a third-party import fails.
    # Nor does the package load dataclasses, which pulls in inspect, ast and
    # dis, or contextlib: every one-shot CLI call would pay for them at
    # start-up.
    env = dict(os.environ, PYTHONPATH=str(Path(abelianaut.__file__).parents[1]))
    code = ("import sys, abelianaut.cli, abelianaut.oracle\n"
            "loaded = {'contextlib', 'dataclasses', 'inspect'} & sys.modules.keys()\n"
            "assert not loaded, sorted(loaded)")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


# Runs one command (or, with no arguments, the star import) in a fresh
# interpreter and prints the costly modules it loaded.  import abelianaut
# alone loads no submodule: each public name loads its home module on first
# use.
_LOADED = (
    "import io, sys\n"
    "from contextlib import redirect_stdout\n"
    "import abelianaut\n"
    "assert not [m for m in sys.modules if m.startswith('abelianaut.')]\n"
    "assert dir(abelianaut) == abelianaut.__all__\n"
    "if sys.argv[1:]:\n"
    "    from abelianaut import cli\n"
    "    with redirect_stdout(io.StringIO()):\n"
    "        assert cli.main(sys.argv[1:]) == 0\n"
    "else:\n"
    "    names = {}\n"
    "    exec('from abelianaut import *', names)\n"
    "    assert sorted(names.keys() - {'__builtins__'}) == abelianaut.__all__\n"
    "    for name in abelianaut.__all__:\n"
    "        home = sys.modules[names[name].__module__]\n"
    "        assert names[name] is getattr(home, name), name\n"
    "costly = {'abelianaut.counting', 'abelianaut.oracle', 'abelianaut.search',\n"
    "          'fractions', 'decimal', 'numbers'}\n"
    "print(' '.join(sorted(costly & sys.modules.keys())))\n")
_SEARCH = "abelianaut.search decimal fractions numbers"


def _assert_loads(cases):
    env = dict(os.environ, PYTHONPATH=str(Path(abelianaut.__file__).parents[1]))
    for argv, loaded in cases:
        proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, (argv, proc.stderr.decode())
        assert proc.stdout.decode().strip() == loaded, argv


def test_only_verify_loads_the_oracle():
    # Every one-shot call compiles the modules it imports, so atlas and search
    # load neither the oracle nor the counting module; verify loads the
    # oracle, and the counting module only when its budget is below its max
    # order.  The star import binds __all__, each name its home module's.
    _assert_loads([
        ([], "abelianaut.oracle " + _SEARCH),
        (["verify", "--max-order", "8"], "abelianaut.oracle"),
        (["verify", "--max-order", "8", "--budget", "4"],
         "abelianaut.counting abelianaut.oracle"),
        (["search", "3/2"], _SEARCH),
        (["atlas", "--max-order", "30"], _SEARCH),
    ])


def test_only_the_ratio_commands_load_the_search_and_fractions():
    # aut, ratio, classify, valuation and enumerate build no Fraction and run
    # no search, so they compile neither the search module nor fractions (nor
    # its decimal and numbers); ratio reduces |Aut|/|G| with gcd.
    _assert_loads([
        (["aut", "Z4"], ""),
        (["ratio", "Z2xZ5xZ25"], ""),
        (["classify", "Z8xZ3xZ3"], ""),
        (["valuation", "Z8xZ4", "-p", "2"], ""),
        (["enumerate", "--max-order", "30"], ""),
    ])


def test_verify_budget_default_is_the_oracles():
    # the parser states the default without importing the oracle
    from abelianaut import oracle

    assert cli.build_parser().parse_args(["verify"]).budget == oracle.DEFAULT_BUDGET


def test_sweep_default_is_the_searchs():
    # the parser states the default without importing the search
    from abelianaut import search

    parser = cli.build_parser()
    for argv in (["search", "3/2"], ["atlas"]):
        assert parser.parse_args(argv).max_order == search.DEFAULT_MAX_ORDER, argv


def test_cli_names_each_package_module_once():
    # The front end reaches every library name through its module, so each
    # module is imported once and no name has two spellings.
    assert package_imports(cli) == {(".", "arith"), (".", "core"), (".", "counting"),
                                    (".", "enumeration"), (".", "oracle"), (".", "search")}


def test_public_api_is_exactly_these_names():
    expected = [
        "BudgetExceeded", "FactorizationOverflow", "GroupShape", "InvalidModulus",
        "NotFoundWithinBounds", "PGroupClassKind", "PGroupShape",
        "UnrealizableReason", "aut_order", "aut_order_p", "canonicalize",
        "classify", "closed_form_ratio", "count_automorphisms", "factorize",
        "is_prime", "p_valuation_of_aut", "partitions", "primes_up_to",
        "ratio", "ratio_atlas", "realize", "screen",
    ]
    assert len(expected) == 23
    assert abelianaut.__all__ == sorted(set(abelianaut.__all__))
    assert abelianaut.__all__ == expected
    for name in expected:
        assert getattr(abelianaut, name) is not None


# ------------------------------------------------------------ README examples

def _readme_cli_examples() -> list[tuple[str, str]]:
    """(command, comment) for each ``abelianaut ...`` line of the README's sh blocks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.splitlines():
            if line.startswith("abelianaut "):
                command, _, comment = line.partition("#")
                examples.append((command.strip(), comment.strip()))
    return examples


@pytest.mark.parametrize("command,comment", _readme_cli_examples())
def test_readme_cli_example(capsys, command, comment):
    assert main(shlex.split(command)[1:]) == 0
    assert " / ".join(capsys.readouterr().out.splitlines()).startswith(comment)


def test_readme_shows_ten_cli_examples():
    assert len(_readme_cli_examples()) == 10
