import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abelianaut
from abelianaut import GroupShape, core
from abelianaut.cli import ParseError, main, parse_group, parse_ratio_target
from abelianaut.enumeration import pgroup_shapes_up_to


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

def test_parse_ratio_target():
    from fractions import Fraction

    assert parse_ratio_target("3") == Fraction(3)
    assert parse_ratio_target("3/2") == Fraction(3, 2)
    assert parse_ratio_target("6/4") == Fraction(3, 2)
    for bad in ("0", "-3", "3/0", "1.5", "a/b", ""):
        with pytest.raises(ParseError):
            parse_ratio_target(bad)


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
    if not hasattr(sys, "set_int_max_str_digits"):
        assert out == f"{expected}\n"
        return
    saved = sys.get_int_max_str_digits()
    assert saved != 0  # main put the limit back
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{expected}\n"
        assert len(out) == 12_042
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
    for shape in pgroup_shapes_up_to(4096):
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


def test_search_unrealizable_odd_prime(capsys):
    assert main(["search", "3", "--max-order", "100"]) == 0
    assert "unrealizable (odd-prime-target)" in capsys.readouterr().out


def test_search_unrealizable_denominator_json(capsys):
    assert main(["search", "1/4", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row == {"verdict": "unrealizable",
                   "reason": "non-squarefree-denominator"}


def test_search_witness(capsys):
    assert main(["search", "1/2"]) == 0
    assert capsys.readouterr().out == "witness: Z2 (order 2), ratio 1/2\n"


def test_search_not_found(capsys):
    assert main(["search", "9", "--max-order", "30"]) == 0
    out = capsys.readouterr().out
    assert "no witness among groups of order <= 30" in out


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
    ("9", "text"): "no witness among groups of order <= 30 (says nothing beyond)\n",
    ("9", "json"): ('{"verdict": "not-found-within-bounds", '
                    '"max_order_searched": 30}\n'),
    ("9", "csv"): "verdict,max_order_searched\nnot-found-within-bounds,30\n",
}


@pytest.mark.parametrize("target,fmt", sorted(_SEARCH_OUTPUT))
def test_search_every_verdict_in_every_format(capsys, target, fmt):
    bound = ["--max-order", "30"] if target == "9" else []
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


def test_search_strong_pseudoprime_is_not_called_prime(capsys):
    # psi_12 = 399165290221 * 798330580441 passes the strong test to the
    # first 12 prime bases, which alone would call it an odd prime.
    assert main(["search", "318665857834031151167461", "--max-order", "10"]) == 0
    assert capsys.readouterr().out == (
        "no witness among groups of order <= 10 (says nothing beyond)\n")


def test_search_target_past_the_primality_bound_exits_2(capsys):
    assert main(["search", "3317044064679887385961981"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_search_rejects_bad_targets(capsys):
    assert main(["search", "0"]) == 1
    assert main(["search", "-2"]) == 1
    assert main(["search", "x/y"]) == 1


def test_atlas_max_order_4(capsys):
    assert main(["atlas", "--max-order", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["1\t1\tZ1", "1/2\t2\tZ2", "2/3\t3\tZ3", "3/2\t4\tZ2 x Z2"]


def test_verify_clean(capsys):
    assert main(["verify", "--max-order", "48", "--budget", "1000000"]) == 0
    out = capsys.readouterr().out
    assert "mismatches=0" in out
    assert "skipped=2" in out  # the two order-32 shapes with rank >= 4


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
    monkeypatch.setattr(core, "aut_order_p", lambda shape: 1)
    assert main(["verify", "--max-order", "4"]) == 3
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.err
    assert "mismatches=0" not in captured.out


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing required --max-order
    assert exc.value.code == 1


def test_search_time_limit_nan_is_a_usage_error(capsys):
    # nan >= 0 is False, so a NaN budget would set a deadline never reached.
    with pytest.raises(SystemExit) as exc:
        main(["search", "9", "--time-limit", "nan"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--time-limit: must be >= 0" in err
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
    assert err.startswith("usage:") and "must be >= 1" in err


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_closed_output_pipe_exits_quietly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(abelianaut.__file__).parents[1]), env.get("PYTHONPATH", "")])
    # About 100 KB of rows: more than a pipe buffers, so the writer is still
    # running when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "abelianaut", "enumerate", "--max-order", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"1\tZ1\t1\t1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err
    assert err == b""
    assert proc.returncode == 0


def test_package_imports_with_the_standard_library_alone():
    # -S leaves site-packages off sys.path, so a third-party import fails.
    env = dict(os.environ, PYTHONPATH=str(Path(abelianaut.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import abelianaut.cli, abelianaut.oracle"],
        capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_public_api_is_exactly_these_names():
    expected = [
        "BudgetExceeded", "FactorizationOverflow", "GroupShape", "InvalidModulus",
        "NotFoundWithinBounds", "PGroupClassKind", "PGroupShape",
        "UnrealizableReason", "aut_order", "aut_order_p", "canonicalize",
        "classify", "closed_form_ratio", "count_automorphisms", "factorize",
        "groups_of_order", "groups_up_to", "is_prime", "is_squarefree",
        "p_valuation_of_aut", "partitions", "primes_up_to", "ratio",
        "ratio_atlas", "realize", "screen", "subgroup_closure",
    ]
    assert len(expected) == 27
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


def test_readme_shows_nine_cli_examples():
    assert len(_readme_cli_examples()) == 9
