"""Orthogonal lattices of primitive quaternions and norm-sphere
enumeration.

The census oracle is a plain four-deep loop over the coordinate box
computing dot products directly, so the lattice kernel is checked
against an implementation that shares none of its code.  The census's
Gram-determinant certificate and its meet-in-the-middle count are held
to the point walk, as Hypothesis properties over small alphas and boxes.
The sphere walk is held to the triple loop it replaced, kept here as
the oracle, and to Jacobi's four-square counts.
"""

import dataclasses
import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from quatlat import _kernel, lattice
from quatlat._kernel import count_orthogonality_failures, pure
from quatlat import (
    OMEGA,
    HurwitzQuaternion,
    BoundExceeded,
    EvenNorm,
    NotLipschitz,
    NotPrimitive,
    PreconditionViolated,
    ZeroInput,
    ZERO,
    enumeration_bound,
    gram_norm,
    in_orthogonal_lattice,
    inner_product,
    is_primitive,
    kernel_backend,
    orthogonal_basis,
    orthogonality_census,
    representation_count,
    representations,
)
from conftest import random_primitive


def _brute_orthogonal_count(alpha: HurwitzQuaternion, q_bound: int) -> int:
    a, b, c, d = alpha.coords
    span = range(-q_bound, q_bound + 1)
    return sum(
        1
        for x, y, z, t in product(span, repeat=4)
        if a * x + b * y + c * z + d * t == 0
    )


def _fraction_member(rows, q) -> bool:
    """Whether q is an integer combination of rows, by rational elimination.

    Solves sum_k r_k * rows[k] == q over the rationals; rows must be
    linearly independent or all zero.
    """
    # Augmented 4x4 system: one equation per coordinate.
    m = [[Fraction(row[c]) for row in rows] + [Fraction(q[c])] for c in range(4)]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, 4) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(4):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    assert rank in (0, 3)
    if any(m[r][3] for r in range(rank, 4)):
        return False  # inconsistent
    return all((m[r][3] / m[r][r]).denominator == 1 for r in range(rank))


def _brute_failure_count(alpha, rows, q_bound):
    span = range(-q_bound, q_bound + 1)
    orthogonal = [
        q for q in product(span, repeat=4)
        if sum(a * x for a, x in zip(alpha, q)) == 0
    ]
    return len(orthogonal), sum(not _fraction_member(rows, q) for q in orthogonal)


def test_basis_rows_are_orthogonal_to_alpha():
    rng = random.Random(4101)
    for _ in range(300):
        alpha = random_primitive(rng, 30)
        basis = orthogonal_basis(alpha)
        for beta in (basis.beta1, basis.beta2, basis.beta3):
            assert inner_product(alpha, beta) == 0
        assert basis.rows() == (basis.beta1.coords, basis.beta2.coords, basis.beta3.coords)


def test_basis_gram_determinant_equals_norm():
    # The orthogonal lattice of a primitive alpha has covolume N(alpha)
    # inside its hyperplane.
    rng = random.Random(4102)
    for _ in range(300):
        alpha = random_primitive(rng, 30)
        basis = orthogonal_basis(alpha)
        assert gram_norm(basis.beta1, basis.beta2, basis.beta3) == alpha.norm()


def test_basis_input_validation():
    with pytest.raises(ZeroInput):
        orthogonal_basis(ZERO)
    with pytest.raises(NotLipschitz):
        orthogonal_basis(OMEGA)
    with pytest.raises(NotPrimitive):
        orthogonal_basis(HurwitzQuaternion.from_coords(2, 2, 0, 0))
    with pytest.raises(NotPrimitive):
        orthogonal_basis(HurwitzQuaternion.from_coords(0, 3, -3, 6))


def test_degenerate_coordinate_patterns_are_covered():
    cases = [
        HurwitzQuaternion.from_coords(0, 0, 1, 2),
        HurwitzQuaternion.from_coords(0, 0, 0, 1),
        HurwitzQuaternion.from_coords(3, 4, 0, 0),
        HurwitzQuaternion.from_coords(1, 0, 0, 0),
        HurwitzQuaternion.from_coords(0, 1, 0, 0),
        HurwitzQuaternion.from_coords(2, 3, 0, 5),
        HurwitzQuaternion.from_coords(0, 5, 7, 0),
    ]
    for alpha in cases:
        basis = orthogonal_basis(alpha)
        for beta in (basis.beta1, basis.beta2, basis.beta3):
            assert inner_product(alpha, beta) == 0
        assert gram_norm(basis.beta1, basis.beta2, basis.beta3) == alpha.norm()
        count, failures = orthogonality_census(alpha, 4)
        assert failures == 0
        assert count == _brute_orthogonal_count(alpha, 4)


def test_census_matches_brute_force_count():
    rng = random.Random(4103)
    for _ in range(20):
        alpha = random_primitive(rng, 6)
        count, failures = orthogonality_census(alpha, 4)
        assert failures == 0
        assert count == _brute_orthogonal_count(alpha, 4)


def test_census_counts_failures_of_broken_bases():
    # A basis with one row scaled misses part of the lattice, and an
    # all-zero basis spans only 0; the census must count exactly the
    # orthogonal box points that rational elimination rejects.
    alphas = [(1, 2, 3, 4), (3, -5, 2, 7), (0, 0, 1, 2), (3, 4, 0, 0), (0, 5, 7, 0)]
    failures = 0
    for coords in alphas:
        rows = orthogonal_basis(HurwitzQuaternion.from_coords(*coords)).rows()
        broken = [rows[:k] + (tuple(f * x for x in rows[k]),) + rows[k + 1:]
                  for k, f in ((0, 2), (1, 3), (2, 2))]
        for basis in broken + [((0, 0, 0, 0),) * 3]:
            got = count_orthogonality_failures(coords, basis, 4)
            assert got == _brute_failure_count(coords, basis, 4), (coords, basis)
            failures += got[1]
    assert failures > 0


_census_settings = settings(derandomize=True, deadline=None)
_primitive_coords = st.tuples(*[st.integers(-8, 8)] * 4).filter(
    lambda c: any(c) and is_primitive(HurwitzQuaternion.from_coords(*c))
)
_small_boxes = st.integers(0, 5)


def _true_rows(alpha):
    return orthogonal_basis(HurwitzQuaternion.from_coords(*alpha)).rows()


# Every kernel name perfbench's tracer wraps on the `quatlat._kernel`
# namespace; it looks each up with no default.
_TRACED_KERNEL_NAMES = (
    "qconj",
    "qneg",
    "qadd",
    "qsub",
    "qmul",
    "qnorm",
    "qdot4",
    "qdivmod",
    "qgcd",
    "cross4",
    "norm_representations",
    "count_nontrivial_gcd_pairs",
    "count_orthogonality_failures",
)


def test_kernel_namespace_is_the_pure_kernel():
    for name in _TRACED_KERNEL_NAMES:
        assert getattr(_kernel, name) is getattr(pure, name), name
    assert kernel_backend() == "pure"


def test_box_census_is_the_pure_one_on_every_backend():
    assert _kernel.count_orthogonality_failures is pure.count_orthogonality_failures


@_census_settings
@given(
    _primitive_coords,
    _small_boxes,
    st.permutations(range(3)),
    st.tuples(*[st.sampled_from((1, -1))] * 3),
    st.integers(-3, 3),
)
def test_certified_census_matches_the_walk_on_unimodular_bases(alpha, q_bound, order, signs, k):
    # Swapping, negating and shearing rows keeps the span, so the
    # certificate still holds and no box point may fail.
    rows = _true_rows(alpha)
    rows = [tuple(sign * x for x in rows[i]) for i, sign in zip(order, signs)]
    rows[0] = tuple(x + k * y for x, y in zip(rows[0], rows[1]))
    assert pure._spans_orthogonal_lattice(alpha, rows)
    got = pure.count_orthogonality_failures(alpha, rows, q_bound)
    assert got[1] == 0
    assert got == pure._walk_orthogonality_failures(alpha, rows, q_bound)


@_census_settings
@given(
    _primitive_coords,
    _small_boxes,
    st.integers(0, 2),
    st.sampled_from((2, 3)),
    st.sampled_from(("scaled row", "zero basis", "content", "rotated")),
)
def test_broken_bases_fall_back_to_the_walk(alpha, q_bound, row, factor, kind):
    rows = _true_rows(alpha)
    scaled = rows[:row] + (tuple(factor * x for x in rows[row]),) + rows[row + 1:]
    if kind == "scaled row":
        rows = scaled
    elif kind == "zero basis":
        rows = ((0, 0, 0, 0),) * 3
    elif kind == "content":
        # Gram determinant factor^2 * N(alpha), the scaled alpha's own
        # norm, yet the rows miss part of the lattice: only the content
        # test rejects this basis.
        alpha, rows = tuple(factor * x for x in alpha), scaled
    else:
        # Coordinates rotated: Gram determinant still N(alpha), but the
        # rows are orthogonal to another vector.
        rows = tuple(r[1:] + r[:1] for r in rows)
        assume(any(sum(a * x for a, x in zip(alpha, r)) for r in rows))
    assert not pure._spans_orthogonal_lattice(alpha, rows)
    got = pure.count_orthogonality_failures(alpha, rows, q_bound)
    assert got == pure._walk_orthogonality_failures(alpha, rows, q_bound)


def test_membership_reports_a_broken_basis(monkeypatch):
    alpha = HurwitzQuaternion.from_coords(1, 2, 3, 4)
    basis = orthogonal_basis(alpha)
    broken = dataclasses.replace(basis, beta1=2 * basis.beta1)
    monkeypatch.setattr(lattice, "orthogonal_basis", lambda a: broken)
    with pytest.raises(RuntimeError, match="inconsistent"):
        in_orthogonal_lattice(alpha, basis.beta1)


def test_membership_examples():
    alpha = HurwitzQuaternion.from_coords(1, 2, 0, 0)
    assert in_orthogonal_lattice(alpha, HurwitzQuaternion.from_coords(2, -1, 0, 0))
    assert in_orthogonal_lattice(alpha, HurwitzQuaternion.from_coords(0, 0, 1, 0))
    assert in_orthogonal_lattice(alpha, ZERO)
    assert not in_orthogonal_lattice(alpha, HurwitzQuaternion.from_coords(1, 0, 0, 0))
    assert not in_orthogonal_lattice(alpha, OMEGA)


def test_membership_agrees_with_inner_product():
    rng = random.Random(4104)
    for _ in range(200):
        alpha = random_primitive(rng, 10)
        q = HurwitzQuaternion.from_coords(*(rng.randint(-12, 12) for _ in range(4)))
        assert in_orthogonal_lattice(alpha, q) == (inner_product(alpha, q) == 0)


def test_integer_combinations_of_basis_are_members():
    rng = random.Random(4105)
    for _ in range(200):
        alpha = random_primitive(rng, 12)
        basis = orthogonal_basis(alpha)
        q = sum(
            (rng.randint(-6, 6) * beta for beta in (basis.beta1, basis.beta2, basis.beta3)),
            ZERO,
        )
        assert in_orthogonal_lattice(alpha, q)


def _ref_norm_representations(n, include_half_odd):
    """The triple loop over (a, b, c) that solves for d; the sphere oracle."""
    out = []
    r0 = isqrt(n)
    for a in range(-r0, r0 + 1):
        n1 = n - a * a
        r1 = isqrt(n1)
        for b in range(-r1, r1 + 1):
            n2 = n1 - b * b
            r2 = isqrt(n2)
            for c in range(-r2, r2 + 1):
                n3 = n2 - c * c
                d = isqrt(n3)
                if d * d == n3:
                    if d == 0:
                        out.append((2 * a, 2 * b, 2 * c, 0))
                    else:
                        out.append((2 * a, 2 * b, 2 * c, 2 * d))
                        out.append((2 * a, 2 * b, 2 * c, -2 * d))
    if include_half_odd and n % 2 == 1:
        m = 4 * n
        r0 = isqrt(m)
        r0 -= 1 - r0 % 2
        for a in range(-r0, r0 + 1, 2):
            n1 = m - a * a
            r1 = isqrt(n1)
            r1 -= 1 - r1 % 2
            for b in range(-r1, r1 + 1, 2):
                n2 = n1 - b * b
                r2 = isqrt(n2)
                r2 -= 1 - r2 % 2
                for c in range(-r2, r2 + 1, 2):
                    n3 = n2 - c * c
                    d = isqrt(n3)
                    if d % 2 == 1 and d * d == n3:
                        out.append((a, b, c, d))
                        out.append((a, b, c, -d))
    out.sort()
    return out


def _sigma(n: int) -> int:
    return sum(
        d if d * d == n else d + n // d
        for d in range(1, isqrt(n) + 1)
        if n % d == 0
    )


def _jacobi_counts(n: int) -> tuple[int, int]:
    """(Lipschitz, Hurwitz) sphere sizes by Jacobi's four-square theorem."""
    if n % 2:
        return 8 * _sigma(n), 24 * _sigma(n)
    odd_part = n
    while odd_part % 2 == 0:
        odd_part //= 2
    return 24 * _sigma(odd_part), 24 * _sigma(odd_part)


_SPHERE_NORMS = list(range(401)) + [1009, 1913, 4999, 10000]


@pytest.mark.parametrize("half_odd", (False, True))
def test_sphere_walk_matches_the_triple_loop(half_odd):
    for n in _SPHERE_NORMS:
        assert pure.norm_representations(n, half_odd) == _ref_norm_representations(
            n, half_odd
        ), n


def test_sphere_sizes_follow_jacobi():
    for n in _SPHERE_NORMS[1:]:
        lipschitz, hurwitz = _jacobi_counts(n)
        assert len(pure.norm_representations(n, False)) == lipschitz, n
        assert len(pure.norm_representations(n, True)) == hurwitz, n


def test_sphere_walk_is_the_pure_one_on_every_backend():
    assert _kernel.norm_representations is pure.norm_representations


def test_representation_counts_for_small_norms():
    assert len(representations(1)) == 8
    assert len(representations(1, hurwitz=True)) == 24
    assert len(representations(2)) == 24
    assert len(representations(3)) == 32
    assert len(representations(3, hurwitz=True)) == 32 + 64
    assert len(representations(4)) == 24


def test_representations_are_sorted_unique_and_on_sphere():
    for n in (1, 2, 5, 9, 15, 25):
        for hurwitz in (False, True):
            reps = representations(n, hurwitz=hurwitz)
            doubles = [u.doubled for u in reps]
            assert doubles == sorted(doubles)
            assert len(set(doubles)) == len(doubles)
            for u in reps:
                assert u.norm() == n
                if not hurwitz:
                    assert u.is_lipschitz
            if not hurwitz:
                assert all(u.is_lipschitz for u in reps)


def test_hurwitz_flag_only_adds_half_odd_elements():
    for n in (3, 5, 15):
        plain = set(u.doubled for u in representations(n))
        full = representations(n, hurwitz=True)
        extra = [u for u in full if u.doubled not in plain]
        assert all(not u.is_lipschitz for u in extra)
        assert len(full) == len(plain) + len(extra)
    # Even norms never have half-odd representations.
    assert representations(4, hurwitz=True) == representations(4)


def test_representation_count_is_eight_sigma():
    for n in range(1, 120, 2):
        assert representation_count(n) == 8 * _sigma(n)


def test_representation_count_rejects_even_norms():
    with pytest.raises(EvenNorm):
        representation_count(6)


@pytest.mark.parametrize("hurwitz", [False, True])
@pytest.mark.parametrize("n", [1, 2, 15, 50])
def test_representations_wrap_the_sphere_like_the_constructor(n, hurwitz):
    built = [HurwitzQuaternion(*d) for d in pure.norm_representations(n, hurwitz)]
    wrapped = representations(n, hurwitz=hurwitz)
    assert wrapped == built
    assert all(type(u) is HurwitzQuaternion for u in wrapped)
    assert [hash(u) for u in wrapped] == [hash(u) for u in built]
    assert set(wrapped) == set(built)
    assert len(wrapped) == len(set(wrapped))


def test_representations_input_validation():
    with pytest.raises(PreconditionViolated):
        representations(0)
    with pytest.raises(BoundExceeded):
        representations(50, bound=49)
    assert len(representations(50, bound=50)) > 0


def test_enumeration_bound_environment_override(monkeypatch):
    monkeypatch.delenv("QUATLAT_ENUM_BOUND", raising=False)
    assert enumeration_bound() == 10000
    monkeypatch.setenv("QUATLAT_ENUM_BOUND", "64")
    assert enumeration_bound() == 64
    with pytest.raises(BoundExceeded):
        representations(65)
    assert len(representations(64)) > 0
    monkeypatch.setenv("QUATLAT_ENUM_BOUND", "abc")
    with pytest.raises(PreconditionViolated):
        enumeration_bound()
    monkeypatch.setenv("QUATLAT_ENUM_BOUND", "0")
    with pytest.raises(PreconditionViolated):
        enumeration_bound()


def test_explicit_bound_beats_environment(monkeypatch):
    monkeypatch.setenv("QUATLAT_ENUM_BOUND", "10")
    assert len(representations(30, bound=30)) > 0
    with pytest.raises(BoundExceeded):
        representations(30)
