"""Command-line surface: literal parsing, JSON contracts, exit codes,
and deterministic seeded output.

JSON documents must carry every number as a decimal string (booleans
stay native), identical argv must produce identical bytes, and exit
codes follow the contract: 0 success, 1 domain error, 2 usage or
parse error.
"""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import quatlat
from quatlat import OMEGA, ZERO, HurwitzQuaternion, GaussianInteger, MixedParity, ParseError
from quatlat.cli import dispatch, format_quaternion, main, parse_gaussian, parse_quaternion
from conftest import random_hurwitz


def test_parse_round_trips_random_quaternions():
    rng = random.Random(8101)
    for _ in range(10_000):
        u = random_hurwitz(rng, 40)
        assert parse_quaternion(format_quaternion(u)) == u


# Doubled coordinates up to 2^70, either parity; 0 and +-1 are drawn
# often so that zero terms, bare axes and +-1/2 coefficients occur.
_half = 2**69
_coord = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-_half, _half - 1))
_quaternions = st.builds(
    lambda coords, odd: HurwitzQuaternion(*(2 * c + odd for c in coords)),
    st.tuples(*[_coord] * 4),
    st.integers(0, 1),
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_quaternions)
@example(ZERO)
@example(OMEGA)
def test_parse_inverts_format(u):
    assert parse_quaternion(format_quaternion(u)) == u


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
        assert format_quaternion(parse_quaternion(text)) == text


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
    for bad, position in (("1+j", 2), ("1/2+i", 1), ("", 0), ("i+", 2), ("2i3", 2)):
        with pytest.raises(ParseError) as info:
            parse_gaussian(bad)
        assert info.value.position == position
        assert bad == "" or f"position {position} of {bad!r}" in str(info.value)


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
    [["norm", "--verbose"], ["norm", "--verbose", "1+i"], ["norm", "1+i", "--verbose"]],
)
def test_dispatch_reports_unknown_options_as_usage_errors(argv, capsys):
    result = dispatch(argv)
    assert result.exit_code == 2
    assert result.payload == ""
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err
    result = dispatch([*argv, "--json"])
    assert result.exit_code == 2
    doc = json.loads(result.payload)
    assert doc["kind"] == "error"
    assert doc["error"] == "UsageError"
    assert doc["message"] == "unrecognized arguments: --verbose"


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
    result = dispatch(["orthobasis", "-1+3i+j-2k"])
    assert result.exit_code == 0
    lines = result.payload.splitlines()
    assert len(lines) == 3
    alpha = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    from quatlat import inner_product

    for line in lines:
        assert inner_product(alpha, parse_quaternion(line)) == 0
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


def _stdout_under_two_hash_seeds(argv):
    """The CLI's stdout for argv in two processes, PYTHONHASHSEED 1 and 2."""
    src = os.path.dirname(os.path.dirname(quatlat.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "quatlat.cli", *argv],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    return outputs


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


def test_montecarlo_threads_option_is_gone():
    argv = ["experiment", "montecarlo", "15", "--trials", "20", "--threads", "2"]
    assert dispatch(argv).exit_code == 2
    doc = json.loads(dispatch([*argv, "--json"]).payload)
    assert doc["error"] == "UsageError"
    assert "--threads" in doc["message"]


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


def test_json_flag_position_is_flexible():
    after = dispatch(["cross", "--json", "1", "i", "j"]).payload
    before = dispatch(["--json", "cross", "1", "i", "j"]).payload
    assert after == before
    doc = json.loads(after)
    assert doc["kind"] == "cross_product"
    assert doc["result"] == "k"


def test_json_documents_always_have_kind_and_string_numbers():
    cases = [
        ["foursq", "--json", "90"],
        ["twosq", "--json", "13"],
        ["mul", "--json", "1+i", "1+j"],
        ["norm", "--json", "-1+3i+j-2k"],
        ["conj", "--json", "1+i"],
        ["dot", "--json", "1+i", "1+j"],
        ["cross", "--json", "1", "i", "j"],
        ["gcd", "--json", "--side", "left", "1+i", "1+j"],
        ["divmod", "--json", "--side", "right", "7+2i-j", "1+i+j+k"],
        ["orthobasis", "--json", "1+2i+3j+4k"],
        ["reps", "--json", "5"],
        ["pall", "--json", "-1+3i+j-2k", "5"],
        ["factor", "--json", "--model", "3,5", "-1+3i+j-2k"],
        ["igama", "--json", "2+i", "1+3i"],
    ]
    for argv in cases:
        result = dispatch(argv)
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
