"""Command line interface for the quaternion arithmetic toolkit.

Subcommands cover the exact operations (mul, norm, conj, dot, cross,
gcd, divmod), the lattice views (orthobasis, reps), factorization
(foursq, twosq, pall, factor, igama), the semiprime experiments
(experiment fraction, experiment montecarlo), and the named
verification suites (check).  `--json` on any subcommand switches the
payload to a single JSON object with a "kind" field; every number in
JSON output is a decimal string so consumers never face 64-bit
overflow, and booleans stay native.  Handlers put raw values in their
documents and `dispatch` applies that rule once, in `_json_value`.

Exit codes: 0 on success, 1 on a domain error (the error class name
prefixes the message), on output holding an integer longer than
sys.get_int_max_str_digits(), or when the reader closes stdout early,
2 on parse or usage errors.  Under `--json` every error, a usage error
included, prints an object of kind "error".  Identical argv plus seed
always produce byte-identical output.

Quaternion literals are written as sign-separated terms in the order
1, i, j, k, with integer coefficients or halves written n/2, e.g.
"-1+3i+j-2k" or "1/2+1/2i+1/2j+1/2k".  Gaussian integer literals use
the same grammar restricted to "a+bi".
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import re
import sys
from typing import NamedTuple

from quatlat.checks import SUITE_IDS, run_all, run_check
from quatlat.core import _SIDES, GaussianInteger, HurwitzQuaternion, inner_product
from quatlat.cross import cross3
from quatlat.errors import MixedParity, ParseError, PreconditionViolated, QuatlatError
from quatlat.euclid import _cli_gcd, divide
from quatlat.factor import (
    CONVENTIONS,
    factor_modelled,
    igama_check,
    pall_right_divisors,
    semiprime_factor_attempt,
    semiprime_pair_fraction,
)
from quatlat.lattice import orthogonal_basis, representations
from quatlat.rational import four_squares, two_squares


class CommandResult(NamedTuple):
    """What a dispatch produced: an exit code and the payload text."""

    exit_code: int
    payload: str


# One term: a sign, the digits of a coefficient, and the rest of a /n.
_TERM = re.compile(r"([+-]?)([0-9]*)(/[0-9]*)?")
_BLANK = " \t\n\r\x0b\x0c"  # ASCII whitespace, the only padding a literal may carry


def _scan_terms(
    text: str, axes: str, halves: bool, literal: str, axis_word: str
) -> list[int]:
    """Sum the sign-separated terms of a literal per axis.

    Each term is an optional integer coefficient, written n/2 when
    halves are allowed, followed by an optional letter from axes;
    duplicate axes accumulate.  Returns len(axes) + 1 totals, the
    scalar first; with halves they are doubled so n/2 stays exact.
    literal and axis_word name the literal and its axes in messages.
    Leading and trailing ASCII whitespace is skipped, and positions
    count in text as given.

    Raises:
        ParseError: on any grammar violation, with the position, and on
            a coefficient longer than sys.get_int_max_str_digits().
    """
    end = len(text.rstrip(_BLANK))
    pos = len(text) - len(text.lstrip(_BLANK))
    if pos >= end:
        raise ParseError(f"empty {literal} literal", 0)
    totals = [0] * (len(axes) + 1)
    whole = 2 if halves else 1
    first = True
    while pos < end:
        m = _TERM.match(text, pos, end)
        sign, digits, half = m.groups()
        if not (sign or first):
            raise ParseError(
                f"expected '+' or '-' at position {pos} of {text!r}", pos
            )
        first = False
        if not digits:
            coefficient = whole
            pos = m.end(1)
        else:
            try:
                coefficient = int(digits)
            except ValueError:
                pos = m.start(2)
                raise ParseError(
                    f"coefficient longer than {sys.get_int_max_str_digits()}"
                    f" digits at position {pos} of {text!r}",
                    pos,
                ) from None
            # The /n counts only in a half; otherwise the scan stops at it.
            if half and halves:
                if half != "/2":
                    pos = m.start(3) + 1
                    raise ParseError(
                        f"only the denominator 2 is allowed, at position"
                        f" {pos} of {text!r}",
                        pos,
                    )
                pos = m.end(3)
            else:
                coefficient *= whole
                pos = m.end(2)
        axis = 0
        if pos < end and text[pos] in axes:
            axis = axes.index(text[pos]) + 1
            pos += 1
        elif not digits:
            raise ParseError(
                f"expected a coefficient or {axis_word} at position {pos}"
                f" of {text!r}",
                pos,
            )
        if sign == "-":
            totals[axis] -= coefficient
        else:
            totals[axis] += coefficient
    return totals


def parse_quaternion(text: str) -> HurwitzQuaternion:
    """Parse a quaternion literal.

    Terms are sign-separated, each an optional integer or half
    coefficient followed by an optional axis from i, j, k; duplicate
    axes accumulate.  Only the denominator 2 is allowed, and the four
    coordinates must be all integers or all half-odd.

    Raises:
        ParseError: on any grammar violation, with the position.
        MixedParity: when integer and half-odd coordinates mix.
    """
    return HurwitzQuaternion(*_scan_terms(text, "ijk", True, "quaternion", "axis"))


def parse_gaussian(text: str) -> GaussianInteger:
    """Parse a Gaussian integer literal like "2+i" or "-3i".

    Raises:
        ParseError: on any grammar violation, with the position.
    """
    return GaussianInteger(*_scan_terms(text, "i", False, "Gaussian", "'i'"))


def _run_foursq(args):
    parts = four_squares(args.n, seed=args.seed)
    doc = {"kind": "four_squares", "n": args.n, "seed": args.seed, "parts": parts}
    return doc, lambda: f"{args.n} = " + " + ".join(f"{x}^2" for x in parts), 0


def _run_twosq(args):
    a, b = two_squares(args.p)
    doc = {"kind": "two_squares", "p": args.p, "parts": (a, b)}
    return doc, lambda: f"{args.p} = {a}^2 + {b}^2", 0


def _literal_row(word, help_text, kind, function, names):
    """The _COMMANDS row of a subcommand that applies function to literals.

    Each name is a positional quaternion literal; the handler parses them
    in order, prints function's result, and echoes the parsed literals
    and the result in its JSON document of the given kind.
    """

    def run(args):
        literals = {name: parse_quaternion(getattr(args, name)) for name in names}
        result = function(*literals.values())
        return {"kind": kind, **literals, "result": result}, lambda: str(result), 0

    return (word,), help_text, tuple((name, {}) for name in names), run


def _run_cross(args):
    a = parse_quaternion(args.a)
    b = parse_quaternion(args.b)
    c = parse_quaternion(args.c)
    result = cross3(a, b, c)
    doc = {
        "kind": "cross_product",
        "a": a,
        "b": b,
        "c": c,
        "result": result,
        "hurwitz": isinstance(result, HurwitzQuaternion),
    }
    return doc, lambda: str(result), 0


def _run_gcd(args):
    a = parse_quaternion(args.a)
    b = parse_quaternion(args.b)
    res = _cli_gcd(a, b, args.side)
    doc = {"kind": "gcd", "side": args.side, "a": a, "b": b, **res._asdict()}
    return doc, lambda: str(res.gcd), 0


def _run_divmod(args):
    a = parse_quaternion(args.a)
    b = parse_quaternion(args.b)
    res = divide(a, b, args.side)
    doc = {"kind": "division", "side": args.side, "a": a, "b": b, **res._asdict()}
    return doc, lambda: f"quotient = {res.quotient}\nremainder = {res.remainder}", 0


def _run_orthobasis(args):
    alpha = parse_quaternion(args.a)
    basis = orthogonal_basis(alpha)
    betas = (basis.beta1, basis.beta2, basis.beta3)
    doc = {
        "kind": "orthogonal_basis",
        "alpha": alpha,
        "basis": betas,
        "permutation": basis.permutation,
    }
    return doc, lambda: "\n".join(str(beta) for beta in betas), 0


def _run_reps(args):
    reps = representations(args.n, hurwitz=args.hurwitz)
    doc = {
        "kind": "representations",
        "n": args.n,
        "hurwitz": args.hurwitz,
        "count": len(reps),
        "representations": reps,
    }
    return doc, lambda: "\n".join(str(r) for r in reps), 0


def _run_pall(args):
    alpha = parse_quaternion(args.a)
    rep = pall_right_divisors(alpha, args.m)
    doc = {
        "kind": "pall_divisors",
        "alpha": alpha,
        "m": args.m,
        "count": rep.count,
        **rep._asdict(),
    }
    return doc, lambda: "\n".join(str(d) for d in rep.divisors), 0


def _parse_model(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"model must be comma-separated integers, got {text!r}")


def _run_factor(args):
    alpha = parse_quaternion(args.a)
    model = _parse_model(args.model)
    fac = factor_modelled(alpha, model)
    doc = {"kind": "factorization", "alpha": alpha, "model": model, **fac._asdict()}
    return doc, lambda: "\n".join(str(f) for f in fac.factors), 0


def _run_igama(args):
    z = parse_gaussian(args.z)
    w = parse_gaussian(args.w)
    res = igama_check(z, w)
    doc = {"kind": "igama", "z": z, "w": w, **res._asdict()}
    return doc, lambda: (
        f"ideal_trivial={'true' if res.ideal_trivial else 'false'} "
        f"coprime={'true' if res.coprime else 'false'} "
        f"gcld_norm={res.gcld_norm}"
    ), 0


def _run_fraction(args):
    rep = semiprime_pair_fraction(args.p, args.q, args.convention)
    doc = {
        "kind": "pair_fraction",
        **rep._asdict(),
        "matches_prediction": rep.matches_prediction,
    }
    return doc, lambda: (
        f"n={rep.n} pairs={rep.total_pairs} "
        f"nontrivial={rep.nontrivial_pairs} fraction={rep.fraction} "
        f"predicted={rep.predicted_fraction} "
        f"match={'true' if rep.matches_prediction else 'false'}"
    ), 0


def _run_montecarlo(args):
    rep = semiprime_factor_attempt(args.n, args.trials, seed=args.seed)
    doc = {
        "kind": "factor_montecarlo",
        "n": rep.n,
        "p": rep.p,
        "q": rep.q,
        "degenerate": rep.degenerate,
        "trials": rep.trials,
        "seed": args.seed,
        # Always 1: perfbench/reference.json digests it (ROADMAP item 1).
        "threads": 1,
        "sampler": rep.sampler,
        "successes_right": rep.successes_right,
        "successes_left": rep.successes_left,
        "successes_either": rep.successes_either,
        "rate_right": rep.rate("right"),
        "rate_left": rep.rate("left"),
        "rate_either": rep.rate("either"),
        "factors_found": rep.factors_found,
    }
    return doc, lambda: "\n".join((
        f"n = {rep.n} = {rep.p} * {rep.q}",
        f"trials = {rep.trials}, sampler = {rep.sampler}",
        f"right: {rep.successes_right} successes, rate {rep.rate('right')}",
        f"left: {rep.successes_left} successes, rate {rep.rate('left')}",
        f"either: {rep.successes_either} successes, rate {rep.rate('either')}",
        "factors found: "
        + (", ".join(str(f) for f in rep.factors_found) or "none"),
    )), 0


def _run_check(args):
    outcomes = run_all() if args.suite == "all" else [run_check(args.suite)]
    passed = sum(1 for outcome in outcomes if outcome.passed)
    doc = {
        "kind": "check_report",
        # Always None: perfbench/reference.json digests it (ROADMAP item 1).
        "bound": None,
        "passed": passed == len(outcomes),
        "suites": [outcome._asdict() for outcome in outcomes],
    }

    def text():
        width = max(len(name) for name in SUITE_IDS)
        lines = []
        for outcome in outcomes:
            tag = "PASS" if outcome.passed else "FAIL"
            lines.append(f"{tag} {outcome.suite.ljust(width)}  {outcome.description}")
            if not outcome.passed:
                lines.append(f"     {outcome.detail}")
        lines.append(f"{passed} of {len(outcomes)} checks passed")
        return "\n".join(lines)

    return doc, text, 0 if passed == len(outcomes) else 1


class UsageError(Exception):
    """argv that argparse rejects; its usage text is already on stderr."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors to stderr as argparse does, then raises.

    An argument whose only string is '--' takes it as its value, where
    Python 3.11's argparse strips it and hands the handler [].
    """

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.nargs is None:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def error(self, message):
        try:
            super().error(message)
        except SystemExit:
            raise UsageError(message) from None


_JSON = ("--json", {"action": "store_true", "help": "emit a single JSON object"})
_SIDE = ("--side", {"choices": _SIDES, "required": True})
_INT = {"type": int}
_SEED = ("--seed", _INT)

# The CLI grammar, one row per subcommand: its words, its help, its
# arguments in declaration order as (name, add_argument keywords), and its
# handler.  A handler returns its JSON document, a function that renders
# its text output, and its exit code.  A row with no handler is a group of
# the rows that extend its words; _literal_row builds the rows that apply
# one function to literals.  Every subcommand also takes --json.
_COMMANDS = (
    (("foursq",), "four-squares decomposition", (("n", _INT), _SEED), _run_foursq),
    (("twosq",), "two squares for p = 1 mod 4", (("p", _INT),), _run_twosq),
    _literal_row("mul", "quaternion product", "product", operator.mul, ("a", "b")),
    _literal_row("norm", "quaternion norm", "norm", HurwitzQuaternion.norm, ("a",)),
    _literal_row(
        "conj", "quaternion conjugate", "conjugate", HurwitzQuaternion.conjugate, ("a",)
    ),
    _literal_row("dot", "inner product", "inner_product", inner_product, ("a", "b")),
    (
        ("cross",),
        "generalized cross product",
        (("a", {}), ("b", {}), ("c", {})),
        _run_cross,
    ),
    (("gcd",), "one-sided gcd", (_SIDE, ("a", {}), ("b", {})), _run_gcd),
    (("divmod",), "one-sided division", (_SIDE, ("a", {}), ("b", {})), _run_divmod),
    (
        ("orthobasis",),
        "basis of the orthogonal lattice",
        (("a", {}),),
        _run_orthobasis,
    ),
    (
        ("reps",),
        "representations of a norm",
        (("n", _INT), ("--hurwitz", {"action": "store_true"})),
        _run_reps,
    ),
    (
        ("pall",),
        "right divisors of a prescribed odd norm",
        (("a", {}), ("m", _INT)),
        _run_pall,
    ),
    (
        ("factor",),
        "factor along a prime model",
        (("a", {}), ("--model", {"required": True, "help": "comma-separated primes"})),
        _run_factor,
    ),
    (
        ("igama",),
        "ideal vs coprimality for z + w j",
        (("z", {}), ("w", {})),
        _run_igama,
    ),
    (("experiment",), "semiprime experiments", (), None),
    (
        ("experiment", "fraction"),
        "exact nontrivial-gcd pair census",
        (
            ("p", _INT),
            ("q", _INT),
            ("--convention", {"choices": CONVENTIONS, "default": "right"}),
        ),
        _run_fraction,
    ),
    (
        ("experiment", "montecarlo"),
        "random-pair factoring trials",
        (("n", _INT), ("--trials", {"type": int, "required": True}), _SEED),
        _run_montecarlo,
    ),
    (
        ("check",),
        "run verification suites",
        (("suite", {"choices": ("all",) + SUITE_IDS}),),
        _run_check,
    ),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser of the grammar, built from _COMMANDS on first use."""
    parser = _ArgumentParser(
        prog="quatlat",
        description="Exact arithmetic for Lipschitz and Hurwitz quaternions.",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, help_text, arguments, handler in _COMMANDS:
        p = groups[words[:-1]].add_parser(words[-1], help=help_text)
        if handler is None:
            groups[words] = p.add_subparsers(
                dest=f"{words[-1]}_command", required=True
            )
            continue
        for name, keywords in (_JSON, *arguments):
            p.add_argument(name, **keywords)
        p.set_defaults(handler=handler)
    return parser


# Each row's handler (None for a group), its arguments by name (--json
# first) as (namespace attribute, keywords), and the names of its positionals.
_ROWS = {
    words: (
        handler,
        {name: (name.lstrip("-"), keywords) for name, keywords in (_JSON, *arguments)},
        [name for name, _ in arguments if not name.startswith("-")],
    )
    for words, _, arguments, handler in _COMMANDS
}
# Every option with its add_argument keywords; argparse itself adds --help.
_OPTIONS = dict(
    [("--help", {"action": "help"}), _JSON]
    + [arg for row in _COMMANDS for arg in row[2] if arg[0].startswith("--")]
)


def _preprocess(argv: list[str]) -> tuple[tuple[str, ...], list[str], list[str]]:
    """Split argv into its command words, its options and its positionals.

    Quaternion literals like "-1+3i+j-2k" would otherwise be taken for
    options.  Every token that starts with '--', and '-h', is an option,
    each known option that takes a value joined to it with '='; so a
    misspelt option reaches argparse, not the literal parser.  The
    command words are the leading tokens that name a row of _COMMANDS,
    () if none.  After an explicit '--' every token, '--' too, is a
    positional.  _table_parse reads valid argv from it; argparse, the rest.
    """
    options: list[str] = []
    tail: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            tail.extend(tokens)
        elif token == "-h" or token.startswith("--"):
            if token in _OPTIONS and "action" not in _OPTIONS[token]:
                value = next(tokens, None)
                if value is not None:
                    token = f"{token}={value}"
            options.append(token)
        else:
            tail.append(token)
    words: tuple[str, ...] = ()
    while tail and (*words, tail[0]) in _ROWS:
        words += (tail.pop(0),)
    return words, options, tail


def _table_parse(words, options, positionals):
    """The namespace the parser of words makes of this split, or None.

    Reads the row's add_argument keywords: action (store_true), type,
    choices, required and default.  None leaves help and errors to argparse.
    """
    handler, arguments, names = _ROWS.get(words, (None, None, ()))
    if handler is None or len(positionals) != len(names):
        return None
    given = dict(zip(names, positionals))
    for token in options:
        name, joined, value = token.partition("=")
        keywords = arguments.get(name, (None, None))[1]
        if keywords is None or bool(joined) == ("action" in keywords):
            return None
        given[name] = value if joined else True
    args = argparse.Namespace(handler=handler)
    for name, (attribute, keywords) in arguments.items():
        if name not in given:
            if keywords.get("required"):
                return None
            value = keywords.get("default", False if "action" in keywords else None)
        elif "type" in keywords:
            try:
                value = keywords["type"](given[name])
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        else:
            value = given[name]
        if name in given and value not in keywords.get("choices", (value,)):
            return None
        setattr(args, attribute, value)
    return args


def dispatch(argv) -> CommandResult:
    """Parse argv, run the subcommand, and map errors to exit codes.

    Valid argv is read from its _COMMANDS row, with no argparse call.
    The top-level parser reads every other argv, and so serves help and
    usage errors.  Only the format asked for is rendered.
    """
    words, options, positionals = _preprocess(list(argv))
    as_json = "--json" in options
    args = _table_parse(words, options, positionals)
    try:
        if args is None:
            unknown = [
                token
                for token in options
                if token.startswith("--") and token.split("=", 1)[0] not in _OPTIONS
            ]
            if unknown:
                # Reported first: a subcommand would otherwise complain of a
                # missing positional that the option only seemed to take.
                _build_parser().error(f"unrecognized arguments: {' '.join(unknown)}")
            args = _build_parser().parse_args([*words, *options, "--", *positionals])
    except UsageError as exc:
        return CommandResult(2, _error_payload(exc, True) if as_json else "")
    except SystemExit as exc:
        return CommandResult(exc.code if exc.code else 0, "")
    try:
        doc, text, code = args.handler(args)
    except (ParseError, MixedParity) as exc:
        return CommandResult(2, _error_payload(exc, as_json))
    except QuatlatError as exc:
        return CommandResult(1, _error_payload(exc, as_json))
    try:
        payload = json.dumps(_json_value(doc)) if as_json else text()
    except ValueError:
        # str() refuses an int longer than the interpreter's digit limit.
        error = PreconditionViolated(
            "the output holds an integer longer than"
            f" {sys.get_int_max_str_digits()} digits"
        )
        return CommandResult(1, _error_payload(error, as_json))
    return CommandResult(code, payload)


def _json_value(value):
    """value with every number, quaternion and Fraction in it as a string.

    Booleans, None and strings stay as they are; lists, tuples and dicts
    are converted item by item; anything else becomes its str(), so a
    quaternion reads in the literal syntax and no JSON reader meets an
    integer it cannot hold.
    """
    if type(value) is HurwitzQuaternion:  # the commonest leaf, tested first
        return str(value)
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return str(value)


def _error_payload(exc: Exception, as_json: bool) -> str:
    name = type(exc).__name__
    if as_json:
        doc = {"kind": "error", "error": name, "message": exc}
        return json.dumps(_json_value(doc))
    return f"{name}: {exc}"


def main(argv=None) -> int:
    result = dispatch(sys.argv[1:] if argv is None else argv)
    if result.payload:
        try:
            print(result.payload, flush=True)
        except BrokenPipeError:
            # The reader closed the pipe.  As the signal module docs advise,
            # stdout goes to devnull so the flush at exit cannot fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
