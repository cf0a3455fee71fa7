"""Command-line surface: literal parsing, JSON contracts, exit codes,
and deterministic seeded output.

JSON documents must carry every number as a decimal string (booleans
stay native), identical argv must produce identical bytes, and exit
codes follow the contract: 0 success, 1 domain error, 2 usage or
parse error.
"""

import argparse
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import quatlat
from quatlat import cli, core, euclid
from quatlat import OMEGA, ZERO, HurwitzQuaternion, GaussianInteger, MixedParity, ParseError
from quatlat.checks import SUITE_IDS, run_check
from quatlat.cross import RationalQuaternion
from quatlat.cli import _COMMANDS, _build_parser, dispatch, main, parse_gaussian, parse_quaternion
from quatlat.factor import CONVENTIONS
from quatlat.lattice import orthogonal_basis
from conftest import random_hurwitz


def test_parse_round_trips_random_quaternions():
    rng = random.Random(8101)
    for _ in range(10_000):
        u = random_hurwitz(rng, 40)
        assert parse_quaternion(str(u)) == u


# Doubled coordinates up to 2^70, either parity; 0 and +-1 are drawn
# often so that zero terms, bare axes and +-1/2 coefficients occur.
_half = 2**69
_coord = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-_half, _half - 1))
_quaternions = st.builds(
    lambda coords, odd: HurwitzQuaternion(*(2 * c + odd for c in coords)),
    st.tuples(*[_coord] * 4),
    st.integers(0, 1),
)


def _format_reference(u):
    """HurwitzQuaternion.__str__ before the direct formatter, kept verbatim."""
    if u.is_zero:
        return "0"
    parts = []
    for val, axis in zip(u.doubled, ("", "i", "j", "k")):
        if val == 0:
            continue
        if val % 2 == 0:
            co = val // 2
            if axis and co == 1:
                text = axis
            elif axis and co == -1:
                text = "-" + axis
            else:
                text = f"{co}{axis}"
        else:
            text = f"{val}/2{axis}"
        if parts and not text.startswith("-"):
            parts.append("+")
        parts.append(text)
    return "".join(parts)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_quaternions)
@example(ZERO)
@example(OMEGA)
def test_parse_inverts_format(u):
    assert str(u) == _format_reference(u)
    assert parse_quaternion(str(u)) == u


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.builds(GaussianInteger, _coord, _coord))
@example(GaussianInteger(0, 0))
def test_parse_gaussian_inverts_format(z):
    assert str(z) == _format_reference(HurwitzQuaternion.from_coords(z.re, z.im, 0, 0))
    assert parse_gaussian(str(z)) == z


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.tuples(*[_coord] * 4), st.sampled_from((2, 4, 8)))
@example((0, -1, 1, 0), 2)
@example((-1, 0, 0, 1), 2)
def test_rational_quaternion_formats_through_the_literal_grammar(nums, d):
    r = RationalQuaternion(nums, d)
    u = HurwitzQuaternion.from_coords(*nums)
    assert str(r) == "(" + _format_reference(u) + ")/" + str(d)
    inside, _, _ = str(r)[1:].rpartition(")/")
    assert parse_quaternion(inside) == u


def test_parse_literal_examples():
    assert parse_quaternion("-1+3i+j-2k") == HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    assert parse_quaternion("1/2+1/2i+1/2j+1/2k") == OMEGA
    assert parse_quaternion("0") == ZERO
    assert parse_quaternion("7") == HurwitzQuaternion.from_integer(7)
    assert parse_quaternion("-j") == HurwitzQuaternion.from_coords(0, 0, -1, 0)
    assert parse_quaternion("i+i") == HurwitzQuaternion.from_coords(0, 2, 0, 0)
    assert parse_quaternion("1+1") == HurwitzQuaternion.from_integer(2)
    assert parse_quaternion("-7/2+1/2i-1/2j-3/2k") == HurwitzQuaternion(-7, 1, -1, -3)


def test_format_is_parse_inverse_on_text():
    for text in ("-1+3i+j-2k", "0", "1/2+1/2i+1/2j+1/2k", "-k", "3-2j"):
        assert str(parse_quaternion(text)) == text


def test_parse_rejects_malformed_input():
    for bad in ("", "1+i/3", "3/4", "1+q", "++1", "i+", "1.5", "--1"):
        with pytest.raises(ParseError):
            parse_quaternion(bad)
    with pytest.raises(MixedParity):
        parse_quaternion("1/2+i")


def test_parse_error_carries_position():
    try:
        parse_quaternion("1+i/3")
    except ParseError as exc:
        assert "position" in str(exc)
    else:
        raise AssertionError("expected ParseError")


def test_parse_gaussian():
    assert parse_gaussian("2+i") == GaussianInteger(2, 1)
    assert parse_gaussian("-3i") == GaussianInteger(0, -3)
    assert parse_gaussian("4") == GaussianInteger(4, 0)
    assert parse_gaussian("1-2i") == GaussianInteger(1, -2)
    for bad, position in (
        ("1+j", 2),
        ("1/2+i", 1),
        ("", 0),
        ("i+", 2),
        ("2i3", 2),
        ("\u0663+i", 0),
        ("1+\uff11i", 2),
        # Only ASCII whitespace pads a literal, and positions count in
        # the text as given, padding included.
        ("\u30001+i", 0),
        ("1+i\u3000", 3),
        ("  1+j", 4),
        ("\t1+i/2", 4),
    ):
        with pytest.raises(ParseError) as info:
            parse_gaussian(bad)
        assert info.value.position == position
        assert bad == "" or f"position {position} of {bad!r}" in str(info.value)


def test_literals_may_carry_ascii_padding():
    assert parse_gaussian(" 2+i\t") == GaussianInteger(2, 1)
    assert parse_quaternion("\n1/2+1/2i+1/2j+1/2k  ") == OMEGA
    for blank in ("  ", "\u3000"):
        with pytest.raises(ParseError) as info:
            parse_quaternion(blank)
        assert info.value.position == 0


_NUM = re.compile(r"[0-9]+")


def _scan_terms_reference(text, axes, halves, literal, axis_word):
    """The literal scanner before one regex match per term, kept verbatim."""
    end = len(text.rstrip(cli._BLANK))
    pos = len(text) - len(text.lstrip(cli._BLANK))
    if pos >= end:
        raise ParseError(f"empty {literal} literal", 0)
    totals = [0] * (len(axes) + 1)
    whole = 2 if halves else 1
    first = True
    while pos < end:
        sign = 1
        if text[pos] == "+":
            pos += 1
        elif text[pos] == "-":
            sign = -1
            pos += 1
        elif not first:
            raise ParseError(
                f"expected '+' or '-' at position {pos} of {text!r}", pos
            )
        first = False
        m = _NUM.match(text, pos, end)
        coefficient = None
        scale = whole
        if m:
            coefficient = int(m.group())
            pos = m.end()
            if halves and pos < end and text[pos] == "/":
                pos += 1
                dm = _NUM.match(text, pos, end)
                if not dm or dm.group() != "2":
                    raise ParseError(
                        f"only the denominator 2 is allowed, at position"
                        f" {pos} of {text!r}",
                        pos,
                    )
                scale = 1
                pos = dm.end()
        axis = 0
        if pos < end and text[pos] in axes:
            axis = axes.index(text[pos]) + 1
            pos += 1
        if coefficient is None and axis == 0:
            raise ParseError(
                f"expected a coefficient or {axis_word} at position {pos}"
                f" of {text!r}",
                pos,
            )
        if coefficient is None:
            coefficient = 1
        totals[axis] += sign * scale * coefficient
    return totals


def _scan_outcome(scan, text, mode):
    """scan's totals for text, or its exception's type, message and position."""
    try:
        return scan(text, *mode)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


_SCAN_MODES = {
    "quaternion": ("ijk", True, "quaternion", "axis"),
    "gaussian": ("i", False, "Gaussian", "'i'"),
}
_LITERAL_CHARS = "0123456789+-/ijk \t\n\r\x0b\x0c\u3000\u0663\uff11x"
_literal_texts = st.one_of(
    st.text(st.sampled_from(_LITERAL_CHARS), max_size=16),
    _quaternions.map(str),
    st.builds(GaussianInteger, _coord, _coord).map(str),
)
# A literal, or any text, with one character put in, dropped or replaced.
_near_literals = st.builds(
    lambda text, at, cut, char: text[:at] + char + text[at + cut:],
    _literal_texts,
    st.integers(0, 40),
    st.integers(0, 1),
    st.sampled_from(_LITERAL_CHARS),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_literal_texts | _near_literals, st.sampled_from(sorted(_SCAN_MODES)))
@example("1/2+3/22i", "quaternion")
@example("1/2i/2", "quaternion")
@example("1/2+1/2i", "gaussian")
@example("3i2", "quaternion")
@example("+/2", "quaternion")
@example(" -7/ ", "quaternion")
def test_scan_matches_the_two_match_reference(text, mode):
    assert _scan_outcome(cli._scan_terms, text, _SCAN_MODES[mode]) == _scan_outcome(
        _scan_terms_reference, text, _SCAN_MODES[mode]
    )


def test_json_value_of_every_leaf_kind_is_pinned():
    basis = orthogonal_basis(HurwitzQuaternion.from_coords(1, 1, 1, 3))
    doc = {
        "kind": "pinned",
        "flag": True,
        "off": False,
        "none": None,
        "word": "ab-cd",
        "n": -12,
        "big": 2**70,
        "fraction": Fraction(-3, 4),
        "whole": Fraction(4, 2),
        "basis": basis,
        "nested": [[1, (2, OMEGA)], [], [None, [False]]],
        "pair": (GaussianInteger(2, -1), "x"),
        "q": HurwitzQuaternion(-7, 1, -1, -3),
        "zero": ZERO,
    }
    assert json.dumps(cli._json_value(doc)) == (
        '{"kind": "pinned", "flag": true, "off": false, "none": null, "word": "ab-cd",'
        ' "n": "-12", "big": "1180591620717411303424", "fraction": "-3/4", "whole": "2",'
        ' "basis": ["i-j", "1-i", "3j-k", "ab-cd"],'
        ' "nested": [["1", ["2", "1/2+1/2i+1/2j+1/2k"]], [], [null, [false]]],'
        ' "pair": ["2-i", "x"], "q": "-7/2+1/2i-1/2j-3/2k", "zero": "0"}'
    )


# One digit past the interpreter's limit on int <-> str conversion.
_DIGIT_LIMIT = sys.get_int_max_str_digits()
_OVERLONG = "1" + "0" * _DIGIT_LIMIT


@pytest.mark.parametrize(
    "argv, literal, position",
    [
        (["norm", _OVERLONG], _OVERLONG, 0),
        (["mul", "1", f"2-{_OVERLONG}k"], f"2-{_OVERLONG}k", 2),
        (["igama", f" {_OVERLONG}i", "1"], f" {_OVERLONG}i", 1),
    ],
    ids=["norm", "mul", "igama"],
)
def test_an_overlong_coefficient_is_a_parse_error(argv, literal, position):
    message = (
        f"coefficient longer than {_DIGIT_LIMIT} digits at position {position} of {literal!r}"
    )
    assert dispatch(argv) == (2, f"ParseError: {message}")
    doc = json.loads(dispatch([*argv, "--json"]).payload)
    assert doc == {"kind": "error", "error": "ParseError", "message": message}
    parse = parse_gaussian if argv[0] == "igama" else parse_quaternion
    with pytest.raises(ParseError) as info:
        parse(literal)
    assert info.value.position == position


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "9" * (_DIGIT_LIMIT // 2 + 1), "9" * (_DIGIT_LIMIT // 2 + 1)],
        ["norm", f"1+{'9' * (_DIGIT_LIMIT // 2 + 1)}j"],
        ["mul", "9" * _DIGIT_LIMIT, "2"],
    ],
    ids=["mul", "norm", "scalar"],
)
def test_an_overlong_result_is_a_precondition_error(argv):
    # The inputs are within the digit limit; a printed result is not.
    message = f"the output holds an integer longer than {_DIGIT_LIMIT} digits"
    assert dispatch(argv) == (1, f"PreconditionViolated: {message}")
    doc = json.loads(dispatch([*argv, "--json"]).payload)
    assert doc == {"kind": "error", "error": "PreconditionViolated", "message": message}


# A = 5*10^(limit - 1) has exactly as many digits as the limit allows;
# 2A, a sum of two terms or a doubled coordinate, has one more.
_A = "5" + "0" * (_DIGIT_LIMIT - 1)
_ELIDED = f"<a number of more than {_DIGIT_LIMIT} digits>"
# 2 * 10^2199, 2,200 digits: within the limit, its square is not.
_HUGE = "2" + "0" * 2199
# Three halves of 10^limit - 1: every written term is within the limit,
# the doubled real coordinate 3 * (10^limit - 1) is one digit past it.
_NINES = "9" * _DIGIT_LIMIT
_HALF_ODD_HUGE = f"{_NINES}/2+{_NINES}/2+{_NINES}/2+1/2i+1/2j+1/2k"


@pytest.mark.parametrize(
    "argv, short, code, error, message",
    [
        (
            ["orthobasis", f"{_A}+{_A}"],
            ["orthobasis", "2+2i"],
            1,
            "NotPrimitive",
            f"{_ELIDED} has content > 1",
        ),
        (
            ["mul", f"1/2+{_A}i", "1"],
            ["mul", "1/2+2i", "1"],
            2,
            "MixedParity",
            f"doubled coordinates (1, {_ELIDED}, 0, 0) are neither all even nor all odd",
        ),
        # Norms of a 2,200-digit input, past the limit though it is not.
        (
            ["pall", f"{_HUGE}+i", "3"],
            ["pall", "2+i", "3"],
            1,
            "PreconditionViolated",
            f"3 does not divide norm {_ELIDED}",
        ),
        (
            ["igama", f"{_HUGE}+i", "1"],
            ["igama", "2+i", "1"],
            1,
            "EvenNorm",
            f"gamma must have odd norm, got {_ELIDED}",
        ),
        (
            ["factor", f"{_HUGE}+i", "--model", "3"],
            ["factor", "2+i", "--model", "3"],
            1,
            "ModelMismatch",
            f"model product 3 != norm {_ELIDED}",
        ),
    ],
    ids=["orthobasis", "mul", "pall", "igama", "factor"],
)
def test_an_overlong_value_is_elided_from_an_error_message(argv, short, code, error, message):
    # The error the short twin raises, with the over-long integer elided.
    short_code, short_payload = dispatch(short)
    assert short_code == code and short_payload.startswith(f"{error}: ")
    assert dispatch(argv) == (code, f"{error}: {message}")
    doc = json.loads(dispatch([*argv, "--json"]).payload)
    assert doc == {"kind": "error", "error": error, "message": message}


def test_a_huge_pair_fraction_norm_is_a_bound_error():
    # Two Mersenne primes within the digit limit whose product is past
    # it; the bound is checked before either is proven prime.
    argv = ["experiment", "fraction", str(2**9689 - 1), str(2**9941 - 1)]
    assert dispatch(argv) == (
        1,
        f"BoundExceeded: norm {_ELIDED} exceeds the enumeration bound 10000",
    )


def test_a_model_mismatch_proves_no_prime(no_primality_proof):
    # The model's product is compared with the norm before its one
    # entry, a Mersenne prime of 2,917 digits, is proven prime.
    model = 2**9689 - 1
    assert dispatch(["factor", "1+i", "--model", str(model)]) == (
        1,
        f"ModelMismatch: model product {model} != norm 2",
    )


# Every subcommand with a literal positional (one declared with no keywords).
_LITERAL_ROWS = [
    row for row in _COMMANDS
    if row[3] and any(not name.startswith("-") and not kw for name, kw in row[2])
]
_ERROR_NAMES = {
    cls.__name__
    for cls in vars(quatlat.errors).values()
    if isinstance(cls, type) and issubclass(cls, quatlat.QuatlatError)
}


def _huge_argv(row, literal):
    """The row's words with every literal the given one, every other
    positional and required option its first choice or 3."""
    argv = list(row[0])
    for name, keywords in row[2]:
        if not keywords:
            value = literal
        elif name.startswith("-") and not keywords.get("required"):
            continue
        else:
            value = keywords.get("choices", ("3",))[0]
        argv += [name, value] if name.startswith("-") else [value]
    return argv


def test_the_huge_literal_guard_covers_every_literal_command():
    names = {row[0][0] for row in _LITERAL_ROWS}
    assert names >= {"mul", "norm", "conj", "dot", "cross", "gcd", "divmod",
                     "orthobasis", "pall", "factor", "igama"}
    assert not names & {"foursq", "twosq", "experiment", "reps", "check"}


@pytest.mark.parametrize("as_json", (False, True), ids=("text", "json"))
@pytest.mark.parametrize("row", _LITERAL_ROWS, ids=lambda row: " ".join(row[0]))
def test_a_huge_literal_never_escapes_dispatch(row, as_json):
    # A result or error message may hold a value past the digit limit
    # even when every input is within it; dispatch must still answer.
    for literal in (f"{_HUGE}+i", _HALF_ODD_HUGE):
        result = dispatch(_huge_argv(row, literal) + ["--json"] * as_json)
        assert type(result) is cli.CommandResult
        if result.exit_code:
            if as_json:
                assert json.loads(result.payload)["kind"] == "error"
            else:
                assert result.payload.split(":", 1)[0] in _ERROR_NAMES


def _no_bare_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_no_bare_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_no_bare_numbers(v) for v in value)
    return not (type(value) in (int, float))


def test_dispatch_cross_example():
    result = dispatch(["cross", "1", "i", "j"])
    assert result.exit_code == 0
    assert result.payload == "k"
    # Numerators (0, 0, -1, 1) over 2: zero terms and unit coefficients
    # print as the literal grammar writes them.
    assert dispatch(["cross", "1/2+1/2i+1/2j+1/2k", "1", "i"]).payload == "(-j+k)/2"


def test_cross_json_shows_a_non_hurwitz_result_in_literal_syntax():
    # Half-odd inputs whose cross product leaves the Hurwitz order: the
    # result is a RationalQuaternion, and JSON carries its str().
    argv = ["cross", "--json", "-3/2+3/2i+7/2j+7/2k", "7/2-5/2i-1/2j-5/2k", "1/2+7/2i+1/2j+1/2k"]
    result = dispatch(argv)
    assert result.exit_code == 0
    assert result.payload == (
        '{"kind": "cross_product", "a": "-3/2+3/2i+7/2j+7/2k",'
        ' "b": "7/2-5/2i-1/2j-5/2k", "c": "1/2+7/2i+1/2j+1/2k",'
        ' "result": "(46-10i-63j+87k)/2", "hurwitz": false}'
    )
    argv = ["cross", "--json", "1/2+1/2i+1/2j+1/2k", "1", "i"]
    assert '"result": "(-j+k)/2"' in dispatch(argv).payload


def test_import_leaves_dataclasses_and_inspect_out():
    # In a fresh process: pytest itself imports both modules.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import quatlat, quatlat.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_cli_env(), check=True,
    )
    assert proc.stdout == "[]\n"


def test_dispatch_handles_leading_dash_literals():
    result = dispatch(["mul", "-1+3i+j-2k", "1+i"])
    assert result.exit_code == 0
    assert result.payload == "-4+2i-j-3k"
    result = dispatch(["norm", "-1+3i+j-2k"])
    assert result.exit_code == 0
    assert result.payload == "15"


def test_dispatch_rejects_bad_flag_value(capsys):
    result = dispatch(["gcd", "--side", "up", "1", "i"])
    assert result.exit_code == 2
    assert result.payload == ""
    assert "invalid choice: 'up'" in capsys.readouterr().err
    result = dispatch(["gcd", "--side", "up", "1", "i", "--json"])
    assert result.exit_code == 2
    doc = json.loads(result.payload)
    assert doc["kind"] == "error"
    assert doc["error"] == "UsageError"
    assert "invalid choice: 'up'" in doc["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--verbose"],
        ["norm", "--verbose", "1+i"],
        ["norm", "1+i", "--verbose"],
        # check takes no --bound: the enumeration bound is fixed.
        ["check", "thm-3-5", "--bound", "4"],
    ],
)
def test_dispatch_reports_unknown_options_as_usage_errors(argv, capsys):
    (option,) = [token for token in argv if token.startswith("--")]
    result = dispatch(argv)
    assert result.exit_code == 2
    assert result.payload == ""
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    result = dispatch([*argv, "--json"])
    assert result.exit_code == 2
    doc = json.loads(result.payload)
    assert doc["kind"] == "error"
    assert doc["error"] == "UsageError"
    assert doc["message"] == f"unrecognized arguments: {option}"


def test_dispatch_parse_error_is_exit_two():
    result = dispatch(["mul", "1+q", "1"])
    assert result.exit_code == 2
    doc = json.loads(dispatch(["mul", "--json", "1+q", "1"]).payload)
    assert doc["kind"] == "error"
    assert doc["error"] == "ParseError"


def test_dispatch_domain_error_is_exit_one():
    result = dispatch(["factor", "--model", "3,5", "2+2i"])
    assert result.exit_code == 1
    doc = json.loads(dispatch(["factor", "--json", "--model", "3,5", "-2+6i+2j-4k"]).payload)
    assert doc["kind"] == "error"
    assert doc["error"] == "NotPrimitive"
    result = dispatch(["factor", "--model", "3,x", "-1+3i+j-2k"])
    assert result.exit_code == 2


def test_dispatch_no_command_is_usage_error():
    assert dispatch([]).exit_code == 2
    assert dispatch(["no-such-command"]).exit_code == 2


def test_help_exits_zero():
    assert dispatch(["--help"]).exit_code == 0
    assert dispatch(["gcd", "--help"]).exit_code == 0


def test_gcd_json_carries_valid_bezout_witnesses():
    doc = json.loads(dispatch(["gcd", "--json", "--side", "right", "15", "-1+3i+j-2k"]).payload)
    assert doc["kind"] == "gcd"
    g = parse_quaternion(doc["gcd"])
    x = parse_quaternion(doc["x"])
    y = parse_quaternion(doc["y"])
    a = parse_quaternion(doc["a"])
    b = parse_quaternion(doc["b"])
    assert x * a + y * b == g
    assert _no_bare_numbers(doc)


def test_gcd_json_above_the_crossover_carries_reduced_witnesses():
    # Norms near 2^79 and 2^81 take the path that reduces modulo the gcd
    # of the norms; its witnesses differ from Euclid's but must still
    # satisfy Bezout, with x reduced modulo N(b)/N(g).  They are the
    # library's byte for byte.
    literals = ("123456789012-98765432109i+55555555555j-7k", "1/2-987654321099/2i+3/2j-5/2k")
    for side in ("right", "left"):
        doc = json.loads(dispatch(["gcd", "--json", "--side", side, *literals]).payload)
        a, b, g, x, y = (parse_quaternion(doc[key]) for key in ("a", "b", "gcd", "x", "y"))
        assert min(a.norm(), b.norm()) >= euclid._REDUCE_FROM
        assert (x * a + y * b if side == "right" else a * x + b * y) == g
        assert (g, x, y) == euclid.gcd(a, b, side)[:3]
        assert all(abs(e) <= b.norm() // g.norm() for e in x.doubled)


def test_divmod_json_satisfies_division_identity():
    for side in ("left", "right"):
        doc = json.loads(
            dispatch(["divmod", "--json", "--side", side, "7+2i-j", "1+i+j+k"]).payload
        )
        assert doc["kind"] == "division"
        a = parse_quaternion(doc["a"])
        b = parse_quaternion(doc["b"])
        q = parse_quaternion(doc["quotient"])
        r = parse_quaternion(doc["remainder"])
        if side == "right":
            assert a == b * q + r
        else:
            assert a == q * b + r
        assert 2 * r.norm() <= b.norm()


def test_divmod_text_output():
    result = dispatch(["divmod", "--side", "right", "7+2i-j", "1+i+j+k"])
    assert result.payload == "quotient = 2-i-2j-k\nremainder = 1-j"


def test_foursq_and_twosq_text():
    assert dispatch(["foursq", "15"]).payload == "15 = 1^2 + 1^2 + 2^2 + 3^2"
    assert dispatch(["twosq", "13"]).payload == "13 = 2^2 + 3^2"
    assert dispatch(["twosq", "7"]).exit_code == 1


def test_reps_counts():
    doc = json.loads(dispatch(["reps", "--json", "3"]).payload)
    assert doc["kind"] == "representations"
    assert doc["count"] == "32"
    doc = json.loads(dispatch(["reps", "--json", "--hurwitz", "3"]).payload)
    assert doc["count"] == "96"
    text = dispatch(["reps", "3"]).payload
    assert len(text.splitlines()) == 32


def test_orthobasis_output():
    from quatlat import inner_product

    # 1+i+j+3k: integer content 1, though 2 divides it in the Hurwitz order.
    for literal in ("-1+3i+j-2k", "1+i+j+3k"):
        result = dispatch(["orthobasis", literal])
        assert result.exit_code == 0
        lines = result.payload.splitlines()
        assert len(lines) == 3
        for line in lines:
            assert inner_product(parse_quaternion(literal), parse_quaternion(line)) == 0
    doc = json.loads(dispatch(["orthobasis", "--json", "-1+3i+j-2k"]).payload)
    assert doc["kind"] == "orthogonal_basis"
    assert _no_bare_numbers(doc)


def test_pall_output():
    result = dispatch(["pall", "-1+3i+j-2k", "3"])
    assert len(result.payload.splitlines()) == 8
    doc = json.loads(dispatch(["pall", "--json", "-1+3i+j-2k", "3"]).payload)
    assert doc["kind"] == "pall_divisors"
    assert doc["left_associated"] is True
    assert len(doc["divisors"]) == 8
    # Norm 10001 is past DEFAULT_ENUM_BOUND: no sphere is walked.
    result = dispatch(["pall", "100+i", "10001"])
    assert result.exit_code == 0
    assert len(result.payload.splitlines()) == 8


def test_igama_text_and_json():
    result = dispatch(["igama", "2+i", "1+3i"])
    assert result.payload == "ideal_trivial=false coprime=false gcld_norm=5"
    doc = json.loads(dispatch(["igama", "--json", "2+i", "1+3i"]).payload)
    assert doc["kind"] == "igama"
    assert doc["ideal_trivial"] is False
    assert doc["coprime"] is False
    assert doc["gcld_norm"] == "5"
    assert dispatch(["igama", "1", "i"]).exit_code == 1


def test_fraction_text_and_json():
    result = dispatch(["experiment", "fraction", "3", "5", "--convention", "right"])
    assert result.payload == (
        "n=15 pairs=36864 nontrivial=12288 fraction=1/3 predicted=5/12 match=false"
    )
    doc = json.loads(
        dispatch(["experiment", "fraction", "--json", "3", "5", "--convention", "either"]).payload
    )
    assert doc["kind"] == "pair_fraction"
    assert doc["fraction"] == "9/16"
    assert doc["predicted_fraction"] == "5/12"
    assert doc["matches_prediction"] is False
    assert _no_bare_numbers(doc)


def test_montecarlo_is_byte_identical_across_runs():
    argv = ["experiment", "montecarlo", "15", "--trials", "400", "--seed", "9"]
    first = dispatch(argv)
    second = dispatch(argv)
    assert first.exit_code == 0
    assert first.payload == second.payload
    json_argv = argv + ["--json"]
    assert dispatch(json_argv).payload == dispatch(json_argv).payload


_CLI = [sys.executable, "-m", "quatlat.cli"]


def _cli_env(**overrides):
    """os.environ with quatlat importable, then overrides; None unsets."""
    src = os.path.dirname(os.path.dirname(quatlat.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    )
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _stdout_under_env(argv, **overrides):
    """The CLI's stdout for argv in a process under _cli_env(**overrides)."""
    proc = subprocess.run(
        [*_CLI, *argv], capture_output=True, env=_cli_env(**overrides), check=True
    )
    return proc.stdout


def _stdout_under_two_hash_seeds(argv):
    """The CLI's stdout for argv in two processes, PYTHONHASHSEED 1 and 2."""
    return [_stdout_under_env(argv, PYTHONHASHSEED=seed) for seed in ("1", "2")]


def test_foursq_without_seed_is_byte_identical_across_processes():
    outputs = _stdout_under_two_hash_seeds(["foursq", "1000000000000000000007", "--json"])
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["seed"] is None
    assert sum(int(x) ** 2 for x in doc["parts"]) == 10**21 + 7


def test_montecarlo_without_seed_is_byte_identical_across_processes():
    argv = ["experiment", "montecarlo", "15", "--trials", "40", "--json"]
    outputs = _stdout_under_two_hash_seeds(argv)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["seed"] is None
    assert doc["trials"] == "40"


# One small argv per subcommand in the README, each without --seed.
_EVERY_SUBCOMMAND = [
    ["foursq", "9999"],
    ["twosq", "13"],
    ["mul", "-1+3i+j-2k", "1+i"],
    ["norm", "-1+3i+j-2k"],
    ["conj", "1/2+3/2i-1/2j+1/2k"],
    ["dot", "-1+3i+j-2k", "1+i"],
    ["cross", "1", "i", "j"],
    ["gcd", "--side", "right", "15", "-1+3i+j-2k"],
    ["divmod", "--side", "left", "7+2i-j", "1+i+j+k"],
    ["orthobasis", "-1+3i+j-2k"],
    ["reps", "--hurwitz", "3"],
    ["pall", "-1+3i+j-2k", "3"],
    ["factor", "--model", "3,5", "-1+3i+j-2k"],
    ["igama", "2+i", "1+3i"],
    ["experiment", "fraction", "3", "5", "--convention", "either"],
    ["experiment", "montecarlo", "15", "--trials", "20"],
    ["check", "thm-3-5"],
]


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: " ".join(argv[:2]))
def test_every_subcommand_is_byte_identical_across_processes(argv):
    outputs = _stdout_under_two_hash_seeds([*argv, "--json"])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["kind"] != "error"


def test_output_does_not_depend_on_the_environment():
    # QUATLAT_ENUM_BOUND, which once set the enumeration bound, changes nothing.
    argv = ["experiment", "montecarlo", "15", "--trials", "40", "--seed", "1", "--json"]
    outputs = {
        _stdout_under_env(argv, QUATLAT_ENUM_BOUND=value) for value in (None, "10", "")
    }
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["sampler"] == "enumeration"


def test_closed_pipe_exits_one_without_traceback():
    # About 1.2 MB of output: the process is still writing when the pipe closes.
    proc = subprocess.Popen(
        [*_CLI, "reps", "9973"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    )
    assert proc.stdout.readline() == b"-99-10i-6j-6k\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait() == 1


def test_montecarlo_threads_option_is_gone():
    argv = ["experiment", "montecarlo", "15", "--trials", "20", "--threads", "2"]
    assert dispatch(argv).exit_code == 2
    doc = json.loads(dispatch([*argv, "--json"]).payload)
    assert doc["error"] == "UsageError"
    assert "--threads" in doc["message"]


def _subcommands(parser):
    (group,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return group.choices


def _parser_for(words):
    # Walks the argparse tree, independently of the _COMMANDS table.
    parser = _build_parser()
    for word in words:
        parser = _subcommands(parser)[word]
    return parser


# Positionals for each subcommand, with a leading '-' where it takes a
# literal, and a value for each of its value options.
_SAMPLES = {
    ("foursq",): (["12345"], {"--seed": "4"}),
    ("twosq",): (["13"], {}),
    ("mul",): (["-1+3i+j-2k", "1+i"], {}),
    ("norm",): (["-1+3i+j-2k"], {}),
    ("conj",): (["-1/2+3/2i-1/2j+1/2k"], {}),
    ("dot",): (["-1+3i+j-2k", "1+i"], {}),
    ("cross",): (["-1", "i", "j"], {}),
    ("gcd",): (["-1+3i+j-2k", "15"], {"--side": "left"}),
    ("divmod",): (["-7+2i-j", "1+i+j+k"], {"--side": "right"}),
    ("orthobasis",): (["-1+3i+j-2k"], {}),
    ("reps",): (["3"], {}),
    ("pall",): (["-1+3i+j-2k", "3"], {}),
    ("factor",): (["-1+3i+j-2k"], {"--model": "5,3"}),
    ("igama",): (["-2+i", "1+3i"], {}),
    ("experiment", "fraction"): (["3", "5"], {"--convention": "left"}),
    ("experiment", "montecarlo"): (["15"], {"--trials": "20", "--seed": "3"}),
    ("check",): (["thm-3-5"], {}),
}


def _sample_argvs(words):
    """Three spellings of the _SAMPLES argv of words, each with --json."""
    positionals, values = _SAMPLES[words]
    spaced = [token for option in values.items() for token in option]
    joined = [f"{name}={value}" for name, value in values.items()]
    return [
        [*words, *spaced, *positionals, "--json"],
        [*words, *joined, *positionals, "--json"],
        [*words, *positionals, *spaced, "--json"],
    ]


@pytest.mark.parametrize("row", _COMMANDS, ids=lambda row: " ".join(row[0]))
def test_parser_matches_command_table(row):
    words, _, arguments, handler = row
    parser = _parser_for(words)
    if handler is None:
        assert [(*words, word) for word in _subcommands(parser)] == [
            other for other, *_ in _COMMANDS if other[:-1] == words
        ]
        return
    options = {s for a in parser._actions for s in a.option_strings}
    names = [name for name, _ in arguments]
    assert options == {"-h", "--help", "--json", *(n for n in names if n.startswith("--"))}
    assert [a.dest for a in parser._actions if not a.option_strings] == [
        n for n in names if not n.startswith("--")
    ]
    assert set(_SAMPLES[words][1]) == {
        name for name, keywords in arguments if name.startswith("--") and "action" not in keywords
    }
    results = {dispatch(argv) for argv in _sample_argvs(words)}
    assert len(results) == 1
    (result,) = results
    assert result.exit_code == 0
    assert json.loads(result.payload)["kind"] != "error"


@pytest.fixture
def parses(monkeypatch):
    """Each parser whose parse_known_args is called, in call order."""
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    return parsers


@pytest.mark.parametrize("words", _SAMPLES, ids=" ".join)
def test_each_sample_argv_is_parsed_once(words, parses):
    # Once, from the _COMMANDS table: a valid argv makes no argparse call.
    for argv in _sample_argvs(words):
        parses.clear()
        assert dispatch(argv).exit_code == 0
        assert parses == [], argv


@pytest.mark.parametrize("words", _SAMPLES, ids=" ".join)
def test_routed_namespace_matches_the_top_level_parse(words, monkeypatch):
    # The namespace the handler receives, as the table parse hands it over.
    received = []
    table_parse = cli._table_parse

    def recording(*split):
        args = table_parse(*split)
        received.append(dict(vars(args)))
        return args

    monkeypatch.setattr(cli, "_table_parse", recording)
    for argv in _sample_argvs(words):
        received.clear()
        assert dispatch(argv).exit_code == 0, argv
        heads, options, positionals = cli._preprocess(argv)
        expected = vars(_build_parser().parse_args([*heads, *options, "--", *positionals]))
        del expected["command"]
        expected.pop("experiment_command", None)
        assert received == [expected], argv


def _argparse_only():
    """dispatch as it runs when the top-level parser reads every argv."""
    return mock.patch.object(cli, "_table_parse", lambda *split: None)


_USAGE_ERRORS = [
    ["mul", "1", "i", "j"],
    ["divmod", "--side", "left", "1"],
    ["gcd", "--side", "up", "1", "i"],
    ["foursq", "x"],
    ["divmod", "-h"],
    ["experiment", "-h"],
    ["-h"],
    [],
    ["frob", "1"],
    ["experiment"],
    ["experiment", "frob"],
]


@pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "empty")
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_usage_errors_match_the_top_level_parse(argv, as_json, capsys, parses):
    argv = [*argv, "--json"] if as_json else argv
    routed = (dispatch(argv), *capsys.readouterr())
    assert parses  # argparse reports every usage error
    with _argparse_only():
        assert (dispatch(argv), *capsys.readouterr()) == routed
    assert routed[0].exit_code == (0 if "-h" in argv else 2)
    assert routed[1] or routed[2]


def test_a_later_double_dash_is_a_literal():
    # After a bare '--' every token is a positional, a later '--' too, so
    # it reaches the literal parser as `norm -- --` does.
    message = "expected a coefficient or axis at position 1 of '--'"
    for argv in (["mul", "--", "1", "--"], ["norm", "--", "--"]):
        assert dispatch(argv) == (2, f"ParseError: {message}")
        doc = json.loads(dispatch(["--json", *argv]).payload)
        assert doc == {"kind": "error", "error": "ParseError", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        ["pall", "--", "1+i", "{}"],
        ["experiment", "fraction", "--", "3", "{}"],
        ["experiment", "montecarlo", "15", "--trials", "{}"],
        ["divmod", "--side={}", "1", "i"],
    ],
    ids=lambda argv: " ".join(argv).format("--"),
)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_a_double_dash_value_is_a_usage_error(argv, as_json, capsys):
    # Python 3.11's argparse strips '--' when it is an argument's only
    # string and hands the handler [], which crashed it.  '--' must be
    # rejected as 'x' is, with the same usage text.
    argv = [*argv, "--json"] if as_json else argv
    result, out, err = dispatch([t.format("x") for t in argv]), *capsys.readouterr()
    assert result.exit_code == 2 and "'x'" in err
    expected = (
        result._replace(payload=result.payload.replace("'x'", "'--'")),
        out,
        err.replace("'x'", "'--'"),
    )
    assert (dispatch([t.format("--") for t in argv]), *capsys.readouterr()) == expected


def test_every_command_keyword_is_read_by_the_table_parse():
    # _table_parse reads these add_argument keywords, and only argparse
    # reads help; any other (nargs, metavar, dest) would part the two.
    # It takes an option's attribute to be its name without '--', and
    # leaves a default as it is, where argparse would convert a string.
    for words, _, arguments, _ in _COMMANDS:
        for name, keywords in (cli._JSON, *arguments):
            assert set(keywords) <= {"action", "type", "choices", "required", "default", "help"}
            assert keywords.get("action", "store_true") == "store_true", (words, name)
            assert "-" not in name.removeprefix("--"), (words, name)
            assert not ("type" in keywords and isinstance(keywords.get("default"), str))


def _outcome(argv):
    """dispatch(argv) with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        result = dispatch(argv)
    return result, out.getvalue(), err.getvalue()


_OPTION_VALUES = [*CONVENTIONS, "up", "3,5", "3,x", "7", "-2", "x", "", "--"]
_LEAVES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(
        ["1+i", "-1+3i+j-2k", "1/2-1/2i+1/2j+1/2k", "2i", "1+q", "", "-h", "--", "frob", "thm-3-5"]
    ),
)
_TOKENS = st.one_of(
    st.sampled_from(sorted({word for words, *_ in _COMMANDS for word in words})),
    st.sampled_from(sorted(cli._OPTIONS)),
    st.builds("{}={}".format, st.sampled_from(sorted(cli._OPTIONS)), st.sampled_from(_OPTION_VALUES)),
    _LEAVES,
)


@st.composite
def _row_argvs(draw):
    """A row's words, then its arguments and a few stray tokens in any order.

    Each positional gets a leaf, and each option is left out, given bare,
    or given a value joined by '=' or as the next token; mostly as the
    row declares it.
    """
    words, _, arguments, _ = draw(st.sampled_from(_COMMANDS))
    chunks = [[draw(_LEAVES)] for name, _ in arguments if not name.startswith("-")]
    for name, keywords in (cli._JSON, *arguments):
        if name.startswith("--"):
            value = draw(
                st.sampled_from(keywords.get("choices") or ["3,5"])
                | st.integers(-3, 40).map(str)
                | st.sampled_from(_OPTION_VALUES)
            )
            joined, spaced = [f"{name}={value}"], [name, value]
            if "action" in keywords:
                spellings = [[], [name], [name], joined]
            else:
                spellings = [[], [name], joined, joined, spaced, spaced]
            chunks.append(draw(st.sampled_from(spellings)))
    chunks += [[token] for token in draw(st.just([]) | st.lists(_TOKENS, max_size=1))]
    return [*words, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]


_ARGV = st.one_of(
    _row_argvs(),
    _row_argvs(),
    st.builds(
        lambda words, rest: [*words, *rest],
        st.sampled_from([(), *(words for words, *_ in _COMMANDS)]),
        st.lists(_TOKENS, max_size=6),
    ),
)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(_ARGV)
@example(["divmod", "--side=left", "--", "1", "--"])
@example(["gcd", "--side", "right", "-1+3i", "--json", "i"])
@example(["experiment", "fraction", "3", "5", "--convention=either"])
@example(["pall", "--", "1+i", "--"])
@example(["experiment", "fraction", "--", "3", "--"])
@example(["norm", _OVERLONG, "--json"])
def test_dispatch_matches_the_argparse_route(argv):
    actual = _outcome(argv)
    with _argparse_only():
        assert _outcome(argv) == actual


def test_valid_argv_builds_no_parser():
    _build_parser.cache_clear()
    assert dispatch(["norm", "1+i", "--json"]).exit_code == 0
    assert _build_parser.cache_info().currsize == 0


def test_choices_are_declared_by_the_library():
    fraction = _parser_for(("experiment", "fraction"))
    (convention,) = [a for a in fraction._actions if "--convention" in a.option_strings]
    assert convention.choices == CONVENTIONS
    (suite,) = [a for a in _parser_for(("check",))._actions if a.dest == "suite"]
    assert suite.choices == ("all",) + SUITE_IDS
    for words in (("gcd",), ("divmod",)):
        (side,) = [a for a in _parser_for(words)._actions if "--side" in a.option_strings]
        assert side.choices is core._SIDES


def test_check_command_exit_codes():
    passing = dispatch(["check", "thm-3-5"])
    assert passing.exit_code == 0
    assert "PASS" in passing.payload
    failing = dispatch(["check", "frac-1"])
    assert failing.exit_code == 1
    assert "FAIL" in failing.payload
    assert dispatch(["check", "unknown-suite"]).exit_code == 2


def test_check_json_document():
    doc = json.loads(dispatch(["check", "--json", "thm-3-5"]).payload)
    assert doc["kind"] == "check_report"
    assert doc["suites"][0]["passed"] is True
    assert _no_bare_numbers(doc)


def test_check_all_reports_every_suite_in_order():
    outcomes = [run_check(suite) for suite in SUITE_IDS]
    assert [o.suite for o in outcomes if not o.passed] == ["frac-1"]
    width = max(len(suite) for suite in SUITE_IDS)
    lines = []
    for o in outcomes:
        lines.append(f"{'PASS' if o.passed else 'FAIL'} {o.suite.ljust(width)}  {o.description}")
        if not o.passed:
            lines.append(f"     {o.detail}")
    lines.append("9 of 10 checks passed")
    assert dispatch(["check", "all"]) == (1, "\n".join(lines))
    result = dispatch(["check", "all", "--json"])
    assert result.exit_code == 1
    doc = json.loads(result.payload)
    assert (doc["kind"], doc["bound"], doc["passed"]) == ("check_report", None, False)
    assert doc["suites"] == [o._asdict() for o in outcomes]


# Each suite's verdict and detail text, frozen.  The suites draw from fixed
# seeds, so any change in what one of them checks shows here.
_SUITE_REPORTS = {
    "thm-3-2": (True, "400 scaling triples and 400 divisibility pairs verified"),
    "cor-3-3": (True, "1800 orthogonal unit-axis pairs verified"),
    "thm-3-4": (
        True,
        "p=3: 576 orthogonal pairs (288 left-only, 288 right-only, 0 both), 0 unassociated;"
        " p=5: 720 orthogonal pairs (288 left-only, 288 right-only, 144 both), 0 unassociated;"
        " p=7: 1152 orthogonal pairs (576 left-only, 576 right-only, 0 both), 0 unassociated;"
        " p=11: 1728 orthogonal pairs (864 left-only, 864 right-only, 0 both), 0 unassociated;"
        " p=13: 1872 orthogonal pairs (864 left-only, 864 right-only, 144 both), 0 unassociated",
    ),
    "thm-3-5": (True, "3280 odd-norm Gaussian pairs verified exhaustively"),
    "thm-2-1": (True, "144 permutation models factored, 40 migration twins recognized"),
    "thm-2-2": (True, "29 (alpha, m) pairs each produced 8 left-associated right divisors"),
    "lemma-4-2": (
        True,
        "206 bases verified; census matched 15156 orthogonal vectors over 18 boxes",
    ),
    "thm-4-3": (True, "300 perpendicular triples gave two-sided multiples"),
    "thm-4-4": (
        True,
        "2400 closed-form identities and 400 random left memberships verified;"
        " -8j+4k witnesses the one-sidedness",
    ),
    # Deliberately failing: the measured fractions are not the predicted
    # closed form (see test_criterion_08_pair_fraction_prediction).
    "frac-1": (
        False,
        "n=15 right: measured 1/3, predicted 5/12 (MISMATCH);"
        " n=15 left: measured 1/3, predicted 5/12 (MISMATCH);"
        " n=15 either: measured 9/16, predicted 5/12 (MISMATCH);"
        " n=21 right: measured 5/16, predicted 3/8 (MISMATCH);"
        " n=21 left: measured 5/16, predicted 3/8 (MISMATCH);"
        " n=21 either: measured 131/256, predicted 3/8 (MISMATCH);"
        " n=35 right: measured 1/4, predicted 7/24 (MISMATCH);"
        " n=35 left: measured 1/4, predicted 7/24 (MISMATCH);"
        " n=35 either: measured 29/64, predicted 7/24 (MISMATCH)",
    ),
}


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_every_suite_reports_its_frozen_detail(suite):
    outcome = run_check(suite)
    assert (outcome.passed, outcome.detail) == _SUITE_REPORTS[suite]


_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_cli_replays_the_benchmark_reference_outputs():
    # Each recorded argv must still give the recorded exit code and
    # stdout digest, as the benchmark's `cli` workload checks them.
    recorded = json.loads(_REFERENCE.read_text())["cli"]
    assert recorded
    mismatches = []
    for key, expected in recorded.items():
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(key.split(" "))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        if [code, digest] != expected:
            mismatches.append(key)
    assert mismatches == []


def test_every_traced_name_resolves_after_importing_the_cli():
    # `perfbench/run.py --trace 1` imports quatlat.cli and wraps each
    # (module, attribute) of the tracer's table; a function that moves
    # to another module must stay bound under the name the table uses.
    path = _REFERENCE.parent / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unbound = [
        f"{module}.{attr}"
        for _, module, attr in tracer.TRACED
        if not callable(getattr(sys.modules.get(module), attr, None))
    ]
    assert unbound == []


def _replayed_gcd_keys():
    """Each recorded `gcd --side SIDE A B --json` argv, split into words."""
    keys = json.loads(_REFERENCE.read_text())["cli"]
    return [key.split(" ") for key in keys if key.startswith("gcd ")]


def test_gcd_crossover_lies_above_every_replayed_literal():
    # The replay pins the Bezout witnesses of the plain Euclid loop, which
    # the CLI's helper runs below its threshold; a gcd literal at or above
    # it would print reduced ones.
    norms = [parse_quaternion(w).norm() for words in _replayed_gcd_keys() for w in words[3:5]]
    assert norms
    assert max(norms) < euclid._REDUCE_FROM


def test_replayed_gcd_literals_print_the_library_gcd():
    # Only the witnesses may differ from public gcd's, and both pairs are
    # Bezout witnesses of the same gcd.
    keys = _replayed_gcd_keys()
    assert len(keys) == 40
    for words in keys:
        side, a, b = words[2], parse_quaternion(words[3]), parse_quaternion(words[4])
        doc = json.loads(dispatch(words).payload)
        lib = quatlat.gcd(a, b, side)
        assert parse_quaternion(doc["gcd"]) == lib.gcd, words
        for x, y in ((parse_quaternion(doc["x"]), parse_quaternion(doc["y"])), lib[1:3]):
            assert (x * a + y * b if side == "right" else a * x + b * y) == lib.gcd, words


def test_json_flag_position_is_flexible():
    after = dispatch(["cross", "--json", "1", "i", "j"]).payload
    before = dispatch(["--json", "cross", "1", "i", "j"]).payload
    assert after == before
    doc = json.loads(after)
    assert doc["kind"] == "cross_product"
    assert doc["result"] == "k"


def test_json_documents_always_have_kind_and_string_numbers():
    for argv in _EVERY_SUBCOMMAND:
        result = dispatch([*argv, "--json"])
        assert result.exit_code == 0, argv
        doc = json.loads(result.payload)
        assert "kind" in doc, argv
        assert _no_bare_numbers(doc), argv


def test_main_prints_payload_and_returns_code(capsys):
    code = main(["cross", "1", "i", "j"])
    assert code == 0
    assert capsys.readouterr().out == "k\n"
    code = main(["gcd", "--side", "up", "1", "i"])
    assert code == 2
