"""Command line interface for the quaternion arithmetic toolkit.

Subcommands cover the exact operations (mul, norm, conj, dot, cross,
gcd, divmod), the lattice views (orthobasis, reps), factorization
(foursq, twosq, pall, factor, igama), the semiprime experiments
(experiment fraction, experiment montecarlo), and the named
verification suites (check).  `--json` on any subcommand switches the
payload to a single JSON object with a "kind" field; every number in
JSON output is a decimal string so consumers never face 64-bit
overflow, and booleans stay native.

Exit codes: 0 on success, 1 on a domain error (the error class name
prefixes the message), 2 on parse or usage errors.  Under `--json`
every error, a usage error included, prints an object of kind
"error".  Identical argv plus seed always produce byte-identical
output.

Quaternion literals are written as sign-separated terms in the order
1, i, j, k, with integer coefficients or halves written n/2, e.g.
"-1+3i+j-2k" or "1/2+1/2i+1/2j+1/2k".  Gaussian integer literals use
the same grammar restricted to "a+bi".
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from quatlat.checks import SUITE_IDS, run_all, run_check
from quatlat.core import (
    GaussianInteger,
    HurwitzQuaternion,
    inner_product,
)
from quatlat.cross import cross3
from quatlat.errors import MixedParity, ParseError, QuatlatError
from quatlat.euclid import divide, gcd
from quatlat.factor import (
    factor_modelled,
    four_squares,
    igama_check,
    pall_right_divisors,
    semiprime_factor_attempt,
    semiprime_pair_fraction,
    two_squares,
)
from quatlat.lattice import orthogonal_basis, representations


@dataclass(frozen=True)
class CommandResult:
    """What a dispatch produced: an exit code and the payload text."""

    exit_code: int
    payload: str


_NUM = re.compile(r"\d+")


def format_quaternion(u: HurwitzQuaternion) -> str:
    """Canonical literal for u; parse_quaternion inverts it exactly."""
    return str(u)


def _scan_terms(
    text: str, axes: str, halves: bool, literal: str, axis_word: str
) -> list[int]:
    """Sum the sign-separated terms of a literal per axis.

    Each term is an optional integer coefficient, written n/2 when
    halves are allowed, followed by an optional letter from axes;
    duplicate axes accumulate.  Returns len(axes) + 1 totals, the
    scalar first; with halves they are doubled so n/2 stays exact.
    literal and axis_word name the literal and its axes in messages.

    Raises:
        ParseError: on any grammar violation, with the position.
    """
    s = text.strip()
    if not s:
        raise ParseError(f"empty {literal} literal", 0)
    totals = [0] * (len(axes) + 1)
    whole = 2 if halves else 1
    pos = 0
    first = True
    while pos < len(s):
        sign = 1
        if s[pos] == "+":
            pos += 1
        elif s[pos] == "-":
            sign = -1
            pos += 1
        elif not first:
            raise ParseError(
                f"expected '+' or '-' at position {pos} of {text!r}", pos
            )
        first = False
        m = _NUM.match(s, pos)
        coefficient = None
        scale = whole
        if m:
            coefficient = int(m.group())
            pos = m.end()
            if halves and pos < len(s) and s[pos] == "/":
                pos += 1
                dm = _NUM.match(s, pos)
                if not dm or dm.group() != "2":
                    raise ParseError(
                        f"only the denominator 2 is allowed, at position"
                        f" {pos} of {text!r}",
                        pos,
                    )
                scale = 1
                pos = dm.end()
        axis = 0
        if pos < len(s) and s[pos] in axes:
            axis = axes.index(s[pos]) + 1
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


def _opt_str(value) -> str | None:
    return None if value is None else str(value)


def _run_foursq(args):
    parts = four_squares(args.n, seed=args.seed)
    text = f"{args.n} = " + " + ".join(f"{x}^2" for x in parts)
    doc = {
        "kind": "four_squares",
        "n": str(args.n),
        "seed": _opt_str(args.seed),
        "parts": [str(x) for x in parts],
    }
    return doc, text, 0


def _run_twosq(args):
    a, b = two_squares(args.p)
    doc = {
        "kind": "two_squares",
        "p": str(args.p),
        "parts": [str(a), str(b)],
    }
    return doc, f"{args.p} = {a}^2 + {b}^2", 0


def _run_mul(args):
    a = parse_quaternion(args.a)
    b = parse_quaternion(args.b)
    result = a * b
    doc = {
        "kind": "product",
        "a": str(a),
        "b": str(b),
        "result": str(result),
    }
    return doc, str(result), 0


def _run_norm(args):
    a = parse_quaternion(args.a)
    doc = {"kind": "norm", "a": str(a), "result": str(a.norm())}
    return doc, str(a.norm()), 0


def _run_conj(args):
    a = parse_quaternion(args.a)
    result = a.conjugate()
    doc = {"kind": "conjugate", "a": str(a), "result": str(result)}
    return doc, str(result), 0


def _run_dot(args):
    a = parse_quaternion(args.a)
    b = parse_quaternion(args.b)
    result = inner_product(a, b)
    doc = {
        "kind": "inner_product",
        "a": str(a),
        "b": str(b),
        "result": str(result),
    }
    return doc, str(result), 0


def _run_cross(args):
    a = parse_quaternion(args.a)
    b = parse_quaternion(args.b)
    c = parse_quaternion(args.c)
    result = cross3(a, b, c)
    doc = {
        "kind": "cross_product",
        "a": str(a),
        "b": str(b),
        "c": str(c),
        "result": str(result),
        "hurwitz": isinstance(result, HurwitzQuaternion),
    }
    return doc, str(result), 0


def _run_gcd(args):
    a = parse_quaternion(args.a)
    b = parse_quaternion(args.b)
    res = gcd(a, b, args.side)
    doc = {
        "kind": "gcd",
        "side": args.side,
        "a": str(a),
        "b": str(b),
        "gcd": str(res.gcd),
        "x": str(res.x),
        "y": str(res.y),
    }
    return doc, str(res.gcd), 0


def _run_divmod(args):
    a = parse_quaternion(args.a)
    b = parse_quaternion(args.b)
    res = divide(a, b, args.side)
    doc = {
        "kind": "division",
        "side": args.side,
        "a": str(a),
        "b": str(b),
        "quotient": str(res.quotient),
        "remainder": str(res.remainder),
    }
    text = f"quotient = {res.quotient}\nremainder = {res.remainder}"
    return doc, text, 0


def _run_orthobasis(args):
    alpha = parse_quaternion(args.a)
    basis = orthogonal_basis(alpha)
    betas = (basis.beta1, basis.beta2, basis.beta3)
    doc = {
        "kind": "orthogonal_basis",
        "alpha": str(alpha),
        "basis": [str(beta) for beta in betas],
        "permutation": basis.permutation,
    }
    return doc, "\n".join(str(beta) for beta in betas), 0


def _run_reps(args):
    reps = representations(args.n, hurwitz=args.hurwitz)
    doc = {
        "kind": "representations",
        "n": str(args.n),
        "hurwitz": bool(args.hurwitz),
        "count": str(len(reps)),
        "representations": [str(r) for r in reps],
    }
    return doc, "\n".join(str(r) for r in reps), 0


def _run_pall(args):
    alpha = parse_quaternion(args.a)
    rep = pall_right_divisors(alpha, args.m)
    doc = {
        "kind": "pall_divisors",
        "alpha": str(alpha),
        "m": str(args.m),
        "count": str(rep.count),
        "divisors": [str(d) for d in rep.divisors],
        "left_associated": rep.left_associated,
    }
    return doc, "\n".join(str(d) for d in rep.divisors), 0


def _parse_model(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"model must be comma-separated integers, got {text!r}")


def _run_factor(args):
    alpha = parse_quaternion(args.a)
    model = _parse_model(args.model)
    fac = factor_modelled(alpha, model)
    doc = {
        "kind": "factorization",
        "alpha": str(alpha),
        "model": [str(p) for p in model],
        "factors": [str(f) for f in fac.factors],
    }
    return doc, "\n".join(str(f) for f in fac.factors), 0


def _run_igama(args):
    z = parse_gaussian(args.z)
    w = parse_gaussian(args.w)
    res = igama_check(z, w)
    doc = {
        "kind": "igama",
        "z": str(z),
        "w": str(w),
        "ideal_trivial": res.ideal_trivial,
        "coprime": res.coprime,
        "gcld_norm": str(res.gcld_norm),
    }
    text = (
        f"ideal_trivial={'true' if res.ideal_trivial else 'false'} "
        f"coprime={'true' if res.coprime else 'false'} "
        f"gcld_norm={res.gcld_norm}"
    )
    return doc, text, 0


def _run_fraction(args):
    rep = semiprime_pair_fraction(args.p, args.q, args.convention)
    doc = {
        "kind": "pair_fraction",
        "p": str(rep.p),
        "q": str(rep.q),
        "n": str(rep.n),
        "convention": rep.convention,
        "total_pairs": str(rep.total_pairs),
        "nontrivial_pairs": str(rep.nontrivial_pairs),
        "fraction": str(rep.fraction),
        "predicted_fraction": str(rep.predicted_fraction),
        "matches_prediction": rep.matches_prediction,
    }
    text = (
        f"n={rep.n} pairs={rep.total_pairs} "
        f"nontrivial={rep.nontrivial_pairs} fraction={rep.fraction} "
        f"predicted={rep.predicted_fraction} "
        f"match={'true' if rep.matches_prediction else 'false'}"
    )
    return doc, text, 0


def _run_montecarlo(args):
    rep = semiprime_factor_attempt(args.n, args.trials, seed=args.seed)
    doc = {
        "kind": "factor_montecarlo",
        "n": str(rep.n),
        "p": str(rep.p),
        "q": str(rep.q),
        "degenerate": rep.degenerate,
        "trials": str(rep.trials),
        "seed": _opt_str(args.seed),
        # Always "1": perfbench/reference.json digests it (ROADMAP item 1).
        "threads": "1",
        "sampler": rep.sampler,
        "successes_right": str(rep.successes_right),
        "successes_left": str(rep.successes_left),
        "successes_either": str(rep.successes_either),
        "rate_right": str(rep.rate("right")),
        "rate_left": str(rep.rate("left")),
        "rate_either": str(rep.rate("either")),
        "factors_found": [str(f) for f in rep.factors_found],
    }
    lines = [
        f"n = {rep.n} = {rep.p} * {rep.q}",
        f"trials = {rep.trials}, sampler = {rep.sampler}",
        f"right: {rep.successes_right} successes, rate {rep.rate('right')}",
        f"left: {rep.successes_left} successes, rate {rep.rate('left')}",
        f"either: {rep.successes_either} successes, rate {rep.rate('either')}",
        "factors found: "
        + (", ".join(str(f) for f in rep.factors_found) or "none"),
    ]
    return doc, "\n".join(lines), 0


def _run_check(args):
    if args.suite == "all":
        outcomes = run_all(bound=args.bound)
    else:
        outcomes = [run_check(args.suite, bound=args.bound)]
    width = max(len(name) for name in SUITE_IDS)
    lines = []
    for outcome in outcomes:
        tag = "PASS" if outcome.passed else "FAIL"
        lines.append(f"{tag} {outcome.suite.ljust(width)}  {outcome.description}")
        if not outcome.passed:
            lines.append(f"     {outcome.detail}")
    passed = sum(1 for outcome in outcomes if outcome.passed)
    lines.append(f"{passed} of {len(outcomes)} checks passed")
    doc = {
        "kind": "check_report",
        "bound": _opt_str(args.bound),
        "passed": passed == len(outcomes),
        "suites": [
            {
                "suite": outcome.suite,
                "description": outcome.description,
                "passed": outcome.passed,
                "detail": outcome.detail,
            }
            for outcome in outcomes
        ],
    }
    return doc, "\n".join(lines), 0 if passed == len(outcomes) else 1


class UsageError(Exception):
    """argv that argparse rejects; its usage text is already on stderr."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors to stderr as argparse does, then raises."""

    def error(self, message):
        try:
            super().error(message)
        except SystemExit:
            raise UsageError(message) from None


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", help="emit a single JSON object"
    )
    parser = _ArgumentParser(
        prog="quatlat",
        description="Exact arithmetic for Lipschitz and Hurwitz quaternions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("foursq", parents=[shared], help="four-squares decomposition")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_run_foursq)

    p = sub.add_parser("twosq", parents=[shared], help="two squares for p = 1 mod 4")
    p.add_argument("p", type=int)
    p.set_defaults(handler=_run_twosq)

    p = sub.add_parser("mul", parents=[shared], help="quaternion product")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_run_mul)

    p = sub.add_parser("norm", parents=[shared], help="quaternion norm")
    p.add_argument("a")
    p.set_defaults(handler=_run_norm)

    p = sub.add_parser("conj", parents=[shared], help="quaternion conjugate")
    p.add_argument("a")
    p.set_defaults(handler=_run_conj)

    p = sub.add_parser("dot", parents=[shared], help="inner product")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_run_dot)

    p = sub.add_parser("cross", parents=[shared], help="generalized cross product")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.set_defaults(handler=_run_cross)

    p = sub.add_parser("gcd", parents=[shared], help="one-sided gcd")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_run_gcd)

    p = sub.add_parser("divmod", parents=[shared], help="one-sided division")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_run_divmod)

    p = sub.add_parser(
        "orthobasis", parents=[shared], help="basis of the orthogonal lattice"
    )
    p.add_argument("a")
    p.set_defaults(handler=_run_orthobasis)

    p = sub.add_parser("reps", parents=[shared], help="representations of a norm")
    p.add_argument("n", type=int)
    p.add_argument("--hurwitz", action="store_true")
    p.set_defaults(handler=_run_reps)

    p = sub.add_parser(
        "pall", parents=[shared], help="right divisors of a prescribed odd norm"
    )
    p.add_argument("a")
    p.add_argument("m", type=int)
    p.set_defaults(handler=_run_pall)

    p = sub.add_parser("factor", parents=[shared], help="factor along a prime model")
    p.add_argument("a")
    p.add_argument("--model", required=True, help="comma-separated primes")
    p.set_defaults(handler=_run_factor)

    p = sub.add_parser(
        "igama", parents=[shared], help="ideal vs coprimality for z + w j"
    )
    p.add_argument("z")
    p.add_argument("w")
    p.set_defaults(handler=_run_igama)

    experiment = sub.add_parser("experiment", help="semiprime experiments")
    esub = experiment.add_subparsers(dest="experiment_command", required=True)

    p = esub.add_parser(
        "fraction", parents=[shared], help="exact nontrivial-gcd pair census"
    )
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument(
        "--convention", choices=("right", "left", "either"), default="right"
    )
    p.set_defaults(handler=_run_fraction)

    p = esub.add_parser(
        "montecarlo", parents=[shared], help="random-pair factoring trials"
    )
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_run_montecarlo)

    p = sub.add_parser("check", parents=[shared], help="run verification suites")
    p.add_argument("suite", choices=("all",) + SUITE_IDS)
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(handler=_run_check)

    return parser


_PARSER = _build_parser()

_TOP_COMMANDS = {
    "foursq",
    "twosq",
    "mul",
    "norm",
    "conj",
    "dot",
    "cross",
    "gcd",
    "divmod",
    "orthobasis",
    "reps",
    "pall",
    "factor",
    "igama",
    "experiment",
    "check",
}
_EXPERIMENT_COMMANDS = {"fraction", "montecarlo"}
_VALUE_FLAGS = {
    "--side",
    "--seed",
    "--trials",
    "--convention",
    "--model",
    "--bound",
}
_BOOL_FLAGS = {"--json", "--hurwitz", "--help", "-h"}


def _preprocess(argv: list[str]) -> list[str]:
    """Reorder argv so literals with a leading '-' parse as positionals.

    Quaternion literals like "-1+3i+j-2k" would otherwise be taken for
    options.  Flags are pulled in front (values of known ones joined
    with '='), subcommand words stay first, and everything else goes
    behind an explicit '--' separator.  Any other token that starts with
    '--' counts as a flag too, so that a misspelt option reaches
    argparse, not the literal parser.  An argv that already uses '--' is
    respected.
    """
    flags: list[str] = []
    tail: list[str] = []
    idx = 0
    positional_only = False
    while idx < len(argv):
        token = argv[idx]
        if positional_only:
            tail.append(token)
        elif token == "--":
            positional_only = True
        elif token in _BOOL_FLAGS:
            flags.append(token)
        elif token in _VALUE_FLAGS:
            if idx + 1 < len(argv):
                flags.append(f"{token}={argv[idx + 1]}")
                idx += 1
            else:
                flags.append(token)
        elif token.startswith("--"):
            flags.append(token)
        else:
            tail.append(token)
        idx += 1
    heads: list[str] = []
    if tail and tail[0] in _TOP_COMMANDS:
        heads.append(tail.pop(0))
        if heads[0] == "experiment" and tail and tail[0] in _EXPERIMENT_COMMANDS:
            heads.append(tail.pop(0))
        elif heads[0] == "check" and tail and tail[0] in ("all",) + SUITE_IDS:
            heads.append(tail.pop(0))
    out = heads + flags
    if tail:
        out.append("--")
        out.extend(tail)
    return out


def dispatch(argv) -> CommandResult:
    """Parse argv, run the subcommand, and map errors to exit codes."""
    argv = _preprocess(list(argv))
    cut = argv.index("--") if "--" in argv else len(argv)
    as_json = "--json" in argv[:cut]
    unknown = [
        token
        for token in argv[:cut]
        if token.startswith("--")
        and token.split("=", 1)[0] not in _VALUE_FLAGS | _BOOL_FLAGS
    ]
    try:
        if unknown:
            # Reported first: a subcommand would otherwise complain of a
            # missing positional that the option only seemed to take.
            _PARSER.error(f"unrecognized arguments: {' '.join(unknown)}")
        args = _PARSER.parse_args(argv)
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
    return CommandResult(code, json.dumps(doc) if as_json else text)


def _error_payload(exc: Exception, as_json: bool) -> str:
    name = type(exc).__name__
    if as_json:
        return json.dumps({"kind": "error", "error": name, "message": str(exc)})
    return f"{name}: {exc}"


def main(argv=None) -> int:
    result = dispatch(sys.argv[1:] if argv is None else argv)
    if result.payload:
        print(result.payload)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
