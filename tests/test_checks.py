"""The sampled verification suites: their draws, and how they fail.

thm-3-2, cor-3-3, lemma-4-2, thm-4-3 and thm-4-4 work on doubled tuples
through the `quatlat._kernel` namespace.  Patching an op there must make
every suite that uses it fail, with the counterexample text the suites
printed when they still worked on quaternion objects; a suite that
imported the op directly would escape the patch and keep passing.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import quatlat._kernel
from quatlat import HurwitzQuaternion, pall_right_divisors
from quatlat.checks import _choice, _randints, _sample, run_check
from quatlat.rational import _randbelow

# Widths 1, 2^k and 2^k + 1 from any lower end, and the suites' own
# ranges randint(-span, span - 1) (half-odd coordinates) and
# randint(-span, span).
_WIDTHS = st.integers(0, 20).flatmap(lambda k: st.sampled_from((1 << k, (1 << k) + 1)))
_RANGES = st.one_of(
    st.tuples(st.integers(-99, 99), _WIDTHS).map(lambda t: (t[0], t[0] + t[1] - 1)),
    st.tuples(st.integers(1, 99), st.booleans()).map(lambda t: (-t[0], t[0] - t[1])),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**64), bounds=_RANGES, count=st.integers(1, 6))
@example(seed=0, bounds=(5, 5), count=4)
@example(seed=7101, bounds=(-30, 29), count=4)
def test_randints_draws_what_randint_draws(seed, bounds, count):
    lo, hi = bounds
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _randints(ours, lo, hi, count) == [theirs.randint(lo, hi) for _ in range(count)]
    # A single draw, then shuffle's randbelow(4), randbelow(3), randbelow(2)
    # on a list of four, as the montecarlo sampler makes them.
    width = hi - lo + 1
    assert _randbelow(ours.getrandbits, width) == theirs.randrange(width)
    ordered, shuffled = [0, 1, 2, 3], [0, 1, 2, 3]
    for i in (3, 2, 1):
        j = _randbelow(ours.getrandbits, i + 1)
        ordered[i], ordered[j] = ordered[j], ordered[i]
    theirs.shuffle(shuffled)
    assert ordered == shuffled
    assert ours.random() == theirs.random()


# thm-2-1 chooses from the 24 units and from Hurwitz spheres of prime
# norm p <= 13, which have 24(p + 1) <= 336 elements.
_POPULATIONS = st.integers(1, 336).map(lambda n: tuple(range(100, 100 + n)))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**64), population=_POPULATIONS, count=st.integers(1, 4))
@example(seed=7103, population=(3, 5, 7, 11, 13), count=3)
def test_choice_draws_what_choice_draws(seed, population, count):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(count):
        assert _choice(ours, population) == theirs.choice(population)
    assert ours.random() == theirs.random()


@settings(derandomize=True, deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**64), size=st.integers(1, 21), k=st.integers(0, 21))
@example(seed=7103, size=5, k=3)
def test_sample_draws_what_sample_draws(seed, size, k):
    population = tuple(range(100, 100 + size))
    k = min(k, size)
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _sample(ours, population, k) == theirs.sample(population, k)
    assert ours.random() == theirs.random()


# Per component of qmul, the sign and b-index of its last term: component 0
# ends in -a3*b3, 1 in -a3*b2, 2 in +a3*b1 and 3 in +a3*b0.  Negating the
# whole component instead, as the cross4 test does, is a reflection of
# every product: it keeps inner products of two products and keeps exact
# quotients exact, so thm-3-2, cor-3-3 and the ideal tests cannot see it.
_LAST_TERMS = ((-1, 3), (-1, 2), (1, 1), (1, 0))


def _qmul_with_a_flipped_term(axis):
    qmul = quatlat._kernel.qmul
    sign, index = _LAST_TERMS[axis]

    def broken(u, v):
        # The raw component moves by -2*sign*a3*b_index; qmul halves it.
        c = list(qmul(u, v))
        c[axis] -= sign * u[3] * v[index]
        return tuple(c)

    return broken


def _qdot4_off_by_one():
    qdot4 = quatlat._kernel.qdot4
    return lambda u, v: qdot4(u, v) + 1


def _cross4_flipped_on_axis_0():
    cross4 = quatlat._kernel.cross4

    def broken(u, v, w):
        c = list(cross4(u, v, w))
        c[0] = -c[0]
        return tuple(c)

    return broken


@pytest.mark.parametrize("axis", range(4))
def test_multiplying_suites_fail_on_a_product_with_a_flipped_term(monkeypatch, axis):
    monkeypatch.setattr(quatlat._kernel, "qmul", _qmul_with_a_flipped_term(axis))
    for suite in ("thm-3-2", "cor-3-3", "thm-4-3", "thm-4-4"):
        assert not run_check(suite).passed, suite


def test_inner_product_suites_fail_on_an_off_by_one_qdot4(monkeypatch):
    monkeypatch.setattr(quatlat._kernel, "qdot4", _qdot4_off_by_one())
    for suite in ("thm-3-2", "cor-3-3", "lemma-4-2"):
        assert not run_check(suite).passed, suite


_BROKEN = {
    "qmul": lambda: _qmul_with_a_flipped_term(1),
    "qdot4": _qdot4_off_by_one,
    "cross4": _cross4_flipped_on_axis_0,
}

# Each suite's verdict and detail under one broken kernel, recorded from the
# suites as they ran on quaternion objects, before the doubled-tuple rewrite.
_BROKEN_REPORTS = {
    ("qmul", "thm-3-2"): (
        False,
        "u=13/2+45/2i+3/2j+23/2k, v=-53/2+27/2i+39/2j+19/2k, w=-6+15i+3j-4k:"
        " (uv).(uw)=207293, (vu).(wu)=528463/2, N(u)(v.w)=260906",
    ),
    ("qmul", "cor-3-3"): (False, "alpha=1/2-47/2i+13/2j-31/2k: (alpha*1).(alpha*j) != 0"),
    ("qmul", "thm-4-3"): (
        False,
        "alpha=-8-5i-9j-2k, beta=-1+i+j-3k, gamma=8-13i-3j+14k:"
        " cross 270+60i-240j-150k has no Lipschitz right cofactor",
    ),
    ("qmul", "thm-4-4"): (
        False,
        "alpha=-19+3i-8j+20k, u=i, v=1, e=1:"
        " cross gave -464i-404j-92k, closed form gives 336i-404j-92k",
    ),
    ("qdot4", "thm-3-2"): (
        False,
        "u=13/2+45/2i+3/2j+23/2k, v=-53/2+27/2i+39/2j+19/2k, w=-6+15i+3j-4k:"
        " (uv).(uw)=1043625/4, (vu).(wu)=1043625/4, N(u)(v.w)=1044307/4",
    ),
    ("qdot4", "cor-3-3"): (False, "alpha=1/2-47/2i+13/2j-31/2k: (alpha*1).(alpha*i) != 0"),
    ("qdot4", "lemma-4-2"): (False, "alpha=1: basis vector -i not orthogonal"),
    ("cross4", "thm-4-3"): (
        False,
        "alpha=-8-5i-9j-2k, beta=-1+i+j-3k, gamma=8-13i-3j+14k:"
        " cross -270+60i-240j-150k has no Lipschitz right cofactor",
    ),
    ("cross4", "thm-4-4"): (
        False,
        "alpha=-19+3i-8j+20k, u=i, v=1, e=i:"
        " cross gave -464-92j+404k, closed form gives 464-92j+404k",
    ),
}


@pytest.mark.parametrize(("kernel", "suite"), list(_BROKEN_REPORTS))
def test_failure_texts_under_a_broken_kernel_are_frozen(monkeypatch, kernel, suite):
    monkeypatch.setattr(quatlat._kernel, kernel, _BROKEN[kernel]())
    outcome = run_check(suite)
    assert (outcome.passed, outcome.detail) == _BROKEN_REPORTS[kernel, suite]


# thm-2-1 and thm-2-2 find every divisor of a given norm through one
# canonical gcd of doubled tuples, `_kernel.qgcd`.
_BROKEN_QGCD = {
    "unit": lambda a, b, right: (2, 0, 0, 0),
    "first argument": lambda a, b, right: a,
}


@pytest.mark.parametrize("broken", list(_BROKEN_QGCD))
def test_divisor_suites_fail_on_a_broken_qgcd(monkeypatch, broken):
    monkeypatch.setattr(quatlat._kernel, "qgcd", _BROKEN_QGCD[broken])
    for suite in ("thm-2-1", "thm-2-2"):
        assert not run_check(suite).passed, suite


def test_pall_walks_no_sphere(monkeypatch):
    def walk(n, include_half_odd):
        raise AssertionError(f"walked the sphere of norm {n}")

    monkeypatch.setattr(quatlat._kernel, "norm_representations", walk)
    report = pall_right_divisors(HurwitzQuaternion.from_coords(-1, 3, 1, -2), 15)
    assert report.count == 8 and report.left_associated


def test_an_unknown_suite_is_a_key_error():
    with pytest.raises(KeyError, match="unknown check suite 'nope'"):
        run_check("nope")
