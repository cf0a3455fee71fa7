"""Arithmetic, parity, norms, units, and associates of Hurwitz quaternions.

Fixed values are frozen from hand computation or exhaustive desk
checks; algebraic laws run as seeded random sweeps over both parity
classes.
"""

import ast
import inspect
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quatlat import (
    OMEGA,
    ONE,
    UNITS,
    ZERO,
    DivisionByZero,
    GaussianInteger,
    HurwitzQuaternion,
    I,
    J,
    K,
    MixedParity,
    NotLipschitz,
    PreconditionViolated,
    associates,
    canonical_associate,
    cofactor,
    content,
    divide,
    embed_gaussian_pair,
    gcd,
    inner_product,
    is_associate,
    is_multiple,
    is_primitive,
    is_primitive_mod,
    units,
)
from conftest import random_hurwitz, random_lipschitz, random_nonzero


def test_from_coords_doubles_each_coordinate():
    u = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    assert u.doubled == (-2, 6, 2, -4)
    assert u.coords == (-1, 3, 1, -2)
    assert u.is_lipschitz


def test_half_odd_quaternion_reports_parity():
    assert OMEGA.doubled == (1, 1, 1, 1)
    assert not OMEGA.is_lipschitz
    assert OMEGA.norm() == 1
    with pytest.raises(NotLipschitz):
        OMEGA.coords


def test_mixed_parity_rejected():
    with pytest.raises(MixedParity):
        HurwitzQuaternion(2, 1, 0, 0)
    with pytest.raises(MixedParity):
        HurwitzQuaternion(1, 1, 1, 0)


def test_basis_constants():
    assert ONE.doubled == (2, 0, 0, 0)
    assert I.doubled == (0, 2, 0, 0)
    assert J.doubled == (0, 0, 2, 0)
    assert K.doubled == (0, 0, 0, 2)
    assert ZERO.is_zero and not ONE.is_zero
    assert bool(ONE) and not bool(ZERO)


def test_quaternion_basis_multiplication_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE


def test_worked_product():
    a = HurwitzQuaternion.from_coords(1, 1, 1, 0)
    b = HurwitzQuaternion.from_coords(1, 2, 0, 0)
    assert (a * b) == HurwitzQuaternion.from_coords(-1, 3, 1, -2)


def test_half_odd_product_stays_hurwitz():
    # omega * omega = (-1 + i + j + k) / 2, hand-multiplied.
    sq = OMEGA * OMEGA
    assert sq.doubled == (-1, 1, 1, 1)
    assert sq.norm() == 1


def test_norm_values():
    assert HurwitzQuaternion.from_coords(-1, 3, 1, -2).norm() == 15
    assert HurwitzQuaternion.from_coords(1, 1, 1, 1).norm() == 4
    assert ZERO.norm() == 0
    assert OMEGA.norm() == 1


def test_norm_is_multiplicative():
    rng = random.Random(1101)
    for _ in range(400):
        u = random_hurwitz(rng, 30)
        v = random_hurwitz(rng, 30)
        assert (u * v).norm() == u.norm() * v.norm()


def test_conjugation_reverses_products():
    rng = random.Random(1102)
    for _ in range(300):
        u = random_hurwitz(rng, 25)
        v = random_hurwitz(rng, 25)
        assert (u * v).conjugate() == v.conjugate() * u.conjugate()
        assert u.conjugate().conjugate() == u
        assert u * u.conjugate() == HurwitzQuaternion.from_integer(u.norm())


def test_ring_laws_hold_exactly():
    rng = random.Random(1103)
    for _ in range(200):
        u = random_hurwitz(rng, 20)
        v = random_hurwitz(rng, 20)
        w = random_hurwitz(rng, 20)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert (v + w) * u == v * u + w * u
        assert u + v == v + u
        assert u - v == u + (-v)
        assert u + ZERO == u
        assert u * ONE == u and ONE * u == u


def test_integer_scalars_multiply_on_both_sides():
    u = HurwitzQuaternion.from_coords(2, -1, 0, 3)
    assert 3 * u == u * 3 == HurwitzQuaternion.from_coords(6, -3, 0, 9)
    assert HurwitzQuaternion.from_integer(-2).doubled == (-4, 0, 0, 0)


def test_power_matches_repeated_product():
    rng = random.Random(1104)
    for _ in range(50):
        u = random_hurwitz(rng, 10)
        assert u**0 == ONE
        assert u**1 == u
        assert u**3 == u * u * u
        assert u**4 == (u * u) * (u * u)


def test_inner_product_values():
    a = HurwitzQuaternion.from_coords(1, 1, 0, 0)
    b = HurwitzQuaternion.from_coords(1, 0, 1, 0)
    assert inner_product(a, b) == 1
    assert inner_product(OMEGA, OMEGA) == 1
    half = HurwitzQuaternion(1, 1, 1, -1)
    assert inner_product(OMEGA, half) == Fraction(1, 2)


def test_inner_product_expands_norms():
    rng = random.Random(1105)
    for _ in range(300):
        u = random_hurwitz(rng, 25)
        v = random_hurwitz(rng, 25)
        assert (u + v).norm() == u.norm() + v.norm() + 2 * inner_product(u, v)
        assert inner_product(u, u) == u.norm()


def test_unit_group_has_order_24():
    group = units()
    assert len(group) == 24
    assert tuple(group) == UNITS
    assert len(set(group)) == 24
    lipschitz = [u for u in group if u.is_lipschitz]
    assert len(lipschitz) == 8
    for u in group:
        assert u.norm() == 1
        assert u.is_unit
        assert u.conjugate() in group
    products = {u * v for u in group for v in group}
    assert products == set(group)


def test_is_unit_matches_norm_one():
    assert OMEGA.is_unit
    assert not HurwitzQuaternion.from_coords(1, 1, 0, 0).is_unit


def test_associates_counts_and_membership():
    u = HurwitzQuaternion.from_coords(1, 1, 1, 0)
    left = list(associates(u, "left"))
    right = list(associates(u, "right"))
    assert len(left) == 24 and len(right) == 24
    assert u in left and u in right
    for eps in UNITS:
        assert eps * u in left
        assert u * eps in right


def test_is_associate_directions():
    rng = random.Random(1106)
    for _ in range(100):
        u = random_nonzero(rng, 15, hurwitz=True)
        eps = UNITS[rng.randrange(24)]
        assert is_associate(eps * u, u, "left")
        assert is_associate(u * eps, u, "right")


def _associate_by_search(u, v, side):
    """The 24-unit search is_associate used to run, kept as its oracle."""
    return any((e * v if side == "left" else v * e) == u for e in UNITS)


_small_hurwitz = st.builds(
    lambda coords, odd: HurwitzQuaternion(*(2 * c + odd for c in coords)),
    st.tuples(*[st.integers(-6, 5)] * 4),
    st.integers(0, 1),
)


# v is u times a unit on either side, u with its coordinates permuted or
# conjugated (equal norm, often not an associate), or unrelated to u.
@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    _small_hurwitz,
    _small_hurwitz,
    st.sampled_from(UNITS),
    st.sampled_from(("left", "right", "permuted", "conjugate", "free")),
)
@example(ZERO, ZERO, ONE, "left")
@example(ZERO, OMEGA, ONE, "free")
@example(OMEGA, ZERO, ONE, "free")
def test_is_associate_matches_unit_search(u, w, e, relation):
    d0, d1, d2, d3 = u.doubled
    v = {
        "left": e * u,
        "right": u * e,
        "permuted": HurwitzQuaternion(d1, d3, d0, d2),
        "conjugate": u.conjugate(),
        "free": w,
    }[relation]
    for side in ("left", "right"):
        assert is_associate(v, u, side) == _associate_by_search(v, u, side)
        assert is_associate(u, v, side) == _associate_by_search(u, v, side)


def test_orthogonal_conjugate_pair_is_one_sided_associate_only():
    # b = -k * a is a left associate of a but not a right associate.
    a = HurwitzQuaternion.from_coords(1, 1, 1, 0)
    b = -(K * a)
    assert b == HurwitzQuaternion.from_coords(0, 1, -1, -1)
    assert is_associate(b, a, "left")
    assert not is_associate(b, a, "right")


def test_canonical_associate_is_canonical():
    rng = random.Random(1107)
    for _ in range(100):
        u = random_nonzero(rng, 12, hurwitz=True)
        for side in ("left", "right"):
            rep, unit = canonical_associate(u, side)
            assert is_associate(rep, u, side)
            assert rep == (unit * u if side == "left" else u * unit)
            assert canonical_associate(rep, side)[0] == rep
            eps = UNITS[rng.randrange(24)]
            shifted = eps * u if side == "left" else u * eps
            assert canonical_associate(shifted, side)[0] == rep
            pool = associates(u, side)
            assert rep == min(pool, key=lambda q: q.doubled)


def test_content_and_primitivity():
    assert content(HurwitzQuaternion.from_coords(2, 2, 0, 4)) == 2
    assert content(HurwitzQuaternion.from_coords(-6, 9, 3, 0)) == 3
    assert content(OMEGA) == 1
    assert is_primitive(HurwitzQuaternion.from_coords(1, 2, 3, 4))
    assert not is_primitive(HurwitzQuaternion.from_coords(2, 2, 2, 2))
    assert is_primitive(OMEGA)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_small_hurwitz, st.integers(1, 12))
def test_content_is_the_largest_exact_integer_divisor(u, scale):
    # The largest m dividing the gcd g of the doubled coordinates such
    # that u/m is Hurwitz: the doubled u/m, d/m, must share one parity.
    u = u * scale
    if u.is_zero:
        return
    d = u.doubled
    g = math.gcd(*d)
    best = max(
        m for m in range(1, g + 1)
        if g % m == 0 and len({(x // m) % 2 for x in d}) == 1
    )
    assert content(u) == best


# Every function with a side argument, called on a valid pair.
_SIDED = {
    "divide": lambda side: divide(ONE, I, side),
    "gcd": lambda side: gcd(ONE, I, side),
    "cofactor": lambda side: cofactor(ONE, I, side),
    "is_associate": lambda side: is_associate(ONE, I, side),
    "associates": lambda side: next(associates(ONE, side)),
    "canonical_associate": lambda side: canonical_associate(ONE, side),
    "is_multiple": lambda side: is_multiple(ONE, I, side),
}


@pytest.mark.parametrize("name", list(_SIDED))
def test_a_side_other_than_left_or_right_is_refused(name):
    call = _SIDED[name]
    for side in ("left", "right"):
        call(side)
    for side in ("up", "Right", ""):
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            call(side)


def test_associates_refuses_a_bad_side_at_the_first_item():
    items = associates(ONE, "up")
    with pytest.raises(ValueError):
        next(items)


def test_divisibility_by_zero_is_refused():
    for side in ("left", "right"):
        with pytest.raises(DivisionByZero):
            cofactor(ONE, ZERO, side)
        with pytest.raises(DivisionByZero):
            is_multiple(ONE, ZERO, side)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_small_hurwitz, st.integers(0, 12))
def test_power_agrees_with_the_product_loop(u, exponent):
    product = ONE
    for _ in range(exponent):
        product = product * u
    assert u**exponent == product


def test_power_takes_logarithmically_many_products():
    # A billion and one factors: square and multiply needs about 60.
    assert I ** (10**9 + 1) == I
    assert OMEGA ** (6 * 10**9 + 1) == OMEGA


def test_powers_are_nonnegative_integers():
    for exponent in (-1, 0.5):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ONE ** exponent


def test_primitivity_mod_an_odd_modulus():
    alpha = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    assert is_primitive_mod(alpha, 3)
    assert is_primitive_mod(alpha, 5)
    assert is_primitive_mod(alpha, 15)
    assert not is_primitive_mod(HurwitzQuaternion.from_coords(0, 3, 0, 0), 3)
    assert not is_primitive_mod(HurwitzQuaternion.from_coords(3, 6, 9, 3), 3)
    for m in (0, -3):
        with pytest.raises(PreconditionViolated):
            is_primitive_mod(alpha, m)


def test_gaussian_integers_behave():
    z = GaussianInteger(2, 1)
    w = GaussianInteger(1, 3)
    assert z * w == GaussianInteger(-1, 7)
    assert z.norm() == 5 and w.norm() == 10
    assert z.conjugate() == GaussianInteger(2, -1)
    assert (z + w) == GaussianInteger(3, 4)
    assert GaussianInteger(0, 1).is_unit
    assert not z.is_unit


def test_gaussian_integers_refuse_other_operands():
    # Each operator of both classes returns NotImplemented for a foreign
    # operand, so Python raises TypeError on either side.  An int is the
    # one scalar a HurwitzQuaternion's * takes.
    z = GaussianInteger(1, 2)
    q = HurwitzQuaternion.from_coords(1, 2, 0, -1)
    ops = (operator.add, operator.sub, operator.mul)
    refused = [(x, op, other) for x in (z, q) for op in ops for other in (1.5, "1")]
    refused += [(z, op, 1) for op in ops] + [(q, op, 1) for op in ops[:2]]
    for x, op, other in refused:
        for pair in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                op(*pair)
    assert q * 3 == 3 * q == HurwitzQuaternion.from_coords(3, 6, 0, -3)


def test_gaussian_integers_are_immutable_and_hash_like_their_pair():
    z = GaussianInteger(1, 2)
    with pytest.raises(AttributeError, match="immutable"):
        z.re = 5
    assert z.re == 1
    assert hash(z) == hash((1, 2)) == hash(GaussianInteger(1, 2))
    assert len({z, GaussianInteger(1, 2), GaussianInteger(2, 1)}) == 2


def test_gaussian_pair_embedding():
    gamma = embed_gaussian_pair(GaussianInteger(2, 1), GaussianInteger(1, 3))
    assert gamma == HurwitzQuaternion.from_coords(2, 1, 1, 3)
    assert gamma.norm() == 5 + 10
    rng = random.Random(1108)
    for _ in range(200):
        z = GaussianInteger(rng.randint(-9, 9), rng.randint(-9, 9))
        w = GaussianInteger(rng.randint(-9, 9), rng.randint(-9, 9))
        assert embed_gaussian_pair(z, w).norm() == z.norm() + w.norm()


def test_string_forms():
    assert str(HurwitzQuaternion.from_coords(-1, 3, 1, -2)) == "-1+3i+j-2k"
    assert str(OMEGA) == "1/2+1/2i+1/2j+1/2k"
    assert str(ZERO) == "0"
    assert str(HurwitzQuaternion.from_coords(0, 0, -1, 0)) == "-j"
    assert str(HurwitzQuaternion.from_coords(7, 0, 0, 0)) == "7"


def test_hash_and_equality_agree():
    rng = random.Random(1109)
    for _ in range(100):
        u = random_hurwitz(rng, 10)
        v = HurwitzQuaternion(*u.doubled)
        assert u == v and hash(u) == hash(v)
    assert HurwitzQuaternion.from_coords(1, 0, 0, 0) != 1 or True  # no cross-type equality crash
    assert len({ONE, ONE, I}) == 2


def test_lipschitz_conjugate_negates_imaginary_parts():
    rng = random.Random(1110)
    for _ in range(100):
        u = random_lipschitz(rng, 30)
        d = u.doubled
        assert u.conjugate().doubled == (d[0], -d[1], -d[2], -d[3])


def test_package_exports_each_module_all_once():
    import quatlat
    from quatlat import core, cross, errors, euclid, factor, lattice, rational

    exported = quatlat.__all__
    assert len(exported) == len(set(exported))
    modules = (core, cross, errors, euclid, factor, lattice, rational)
    assert set(exported) == {"__version__", "kernel_backend"}.union(
        *(module.__all__ for module in modules)
    )
    for module in modules:
        for name in module.__all__:
            assert getattr(quatlat, name) is getattr(module, name), name
    namespace = {}
    exec("from quatlat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(exported)


def test_no_module_imports_inside_a_function():
    # Every import sits at the top of its module, so the import graph is
    # the one the module headers show, with no cycle hidden in a body.
    import quatlat

    nested = []
    for path in sorted(Path(quatlat.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []


# The parameter names of every exported callable.  A new parameter, an
# option to the public API, has to be added here in plain sight.
_PUBLIC_PARAMETERS = {
    "kernel_backend": (),
    "HurwitzQuaternion": ("d0", "d1", "d2", "d3"),
    "GaussianInteger": ("re", "im"),
    "units": (),
    "inner_product": ("u", "v"),
    "cofactor": ("a", "d", "side"),
    "is_associate": ("u", "v", "side"),
    "associates": ("u", "side"),
    "canonical_associate": ("u", "side"),
    "content": ("u",),
    "is_primitive": ("u",),
    "is_primitive_mod": ("u", "m"),
    "embed_gaussian_pair": ("z", "w"),
    "RationalQuaternion": ("numerators", "denominator"),
    "cross_general": ("vectors",),
    "cross3": ("u", "v", "w"),
    "triple_scalar": ("u1", "u2", "u3", "v"),
    "gram_norm": ("u", "v", "w"),
    "expanded_norm": ("u", "v", "w"),
    "det_int": ("matrix",),
    "ParseError": ("message", "position"),
    "DivisionResult": ("quotient", "remainder", "side"),
    "GcdResult": ("gcd", "x", "y", "side"),
    "divide": ("dividend", "divisor", "side", "lipschitz_only"),
    "gcd": ("a", "b", "side"),
    "is_multiple": ("a", "d", "side", "lipschitz_cofactor"),
    "gaussian_gcd": ("z", "w"),
    "miller_rabin": ("n",),
    "sqrt_minus_one_mod_p": ("p",),
    "two_squares": ("p",),
    "four_squares": ("n", "seed"),
    "rational_factorize": ("n",),
    "PrimeModel": ("primes",),
    "ModelledFactorization": ("factors", "model"),
    "factor_modelled": ("alpha", "model"),
    "unit_migration_equal": ("f1", "f2"),
    "PallReport": ("alpha", "m", "divisors", "left_associated"),
    "pall_right_divisors": ("alpha", "m"),
    "IgamaResult": ("ideal_trivial", "coprime", "gcld_norm"),
    "igama_check": ("z", "w"),
    "OuterFactorRecovery": (
        "left_recovers", "right_recovers", "left_gcd", "right_gcd"
    ),
    "outer_factor_recovery": ("pi", "rho"),
    "PairFractionReport": (
        "p", "q", "n", "convention", "total_pairs", "nontrivial_pairs",
        "fraction", "predicted_fraction",
    ),
    "semiprime_pair_fraction": ("p", "q", "convention"),
    "FactorAttemptReport": (
        "n", "p", "q", "degenerate", "trials", "sampler", "successes_right",
        "successes_left", "successes_either", "factors_found",
    ),
    "semiprime_factor_attempt": ("n", "trials", "seed"),
    "OrthogonalPrimesReport": (
        "p", "elements", "orthogonal_pairs", "left_only_pairs",
        "right_only_pairs", "both_sides_pairs", "failures",
    ),
    "orthogonal_primes_check": ("p",),
    "OrthogonalBasis": ("beta1", "beta2", "beta3", "permutation"),
    "orthogonal_basis": ("alpha",),
    "in_orthogonal_lattice": ("alpha", "q"),
    "orthogonality_census": ("alpha", "q_bound"),
    "representations": ("n", "hurwitz"),
    "representation_count": ("n",),
}


def test_exported_callables_take_the_pinned_parameters():
    import quatlat

    parameters = {}
    for name in quatlat.__all__:
        obj = getattr(quatlat, name)
        if not callable(obj):
            continue
        try:
            parameters[name] = tuple(inspect.signature(obj).parameters)
        except ValueError:
            # An exception class on the builtin constructor has none.
            assert issubclass(obj, Exception), name
    assert parameters == _PUBLIC_PARAMETERS


def _records():
    """One instance of every result record, and of RationalQuaternion."""
    import quatlat
    from quatlat.checks import CheckOutcome
    from quatlat.cli import CommandResult

    alpha = HurwitzQuaternion.from_coords(1, 2, 3, 4)
    beta = HurwitzQuaternion.from_integer(5)
    pi, rho = HurwitzQuaternion.from_coords(1, 1, 1, 0), HurwitzQuaternion.from_coords(1, 0, 2, 0)
    return [
        quatlat.divide(alpha, beta),
        quatlat.gcd(alpha, beta, "right"),
        quatlat.cross3(
            HurwitzQuaternion(-3, 3, 7, 7),
            HurwitzQuaternion(7, -5, -1, -5),
            HurwitzQuaternion(1, 7, 1, 1),
        ),
        quatlat.orthogonal_basis(alpha),
        quatlat.PrimeModel((3, 5)),
        quatlat.factor_modelled(alpha, (2, 3, 5)),
        quatlat.pall_right_divisors(alpha, 5),
        quatlat.igama_check(GaussianInteger(1, 2), GaussianInteger(1, 1)),
        quatlat.outer_factor_recovery(pi, rho),
        quatlat.semiprime_pair_fraction(3, 5),
        quatlat.semiprime_factor_attempt(15, 3, seed=1),
        quatlat.orthogonal_primes_check(3),
        CheckOutcome("thm-3-5", "description", True, "detail"),
        CommandResult(0, "k"),
    ]


def test_records_keep_their_repr_and_refuse_assignment():
    records = _records()
    assert type(records[2]).__name__ == "RationalQuaternion"
    for record in records:
        name = type(record).__name__
        fields = tuple(inspect.signature(type(record)).parameters)
        shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
        assert repr(record) == f"{name}({shown})"
        with pytest.raises(AttributeError):
            setattr(record, fields[0], getattr(record, fields[0]))
        with pytest.raises(AttributeError):
            record.extra = None
