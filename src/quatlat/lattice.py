"""Orthogonal sublattices of the Lipschitz order and norm enumerations.

For a Lipschitz quaternion alpha = a + bi + cj + dk with gcd(a, b, c, d)
= 1 the rank-3 lattice of Lipschitz vectors orthogonal to alpha has an
explicit basis assembled from two extended-gcd identities, one on the
coordinate pair (a, b) and one on (c, d):

    beta1 = g2*(x0 + y0*i) - g1*(z0 + t0*i)*j
    beta2 = (b - a*i) / g1
    beta3 = ((d - c*i) / g2) * j

with g1 = gcd(a, b) = a*x0 + b*y0 and g2 = gcd(c, d) = c*z0 + d*t0.
When one coordinate pair vanishes the construction degenerates and a
substitute basis is returned instead (the other pair is then
coprime).  The box census rests on one certificate that the basis
spans the whole lattice, the vector-product identity
cross3(beta1, beta2, beta3) = +-alpha with content 1, and refuses a
basis that fails it.  Membership is the definition, q . alpha = 0.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import NamedTuple

from quatlat import _kernel
from quatlat._kernel.pure import xgcd
from quatlat.core import HurwitzQuaternion
from quatlat.errors import (
    BoundExceeded,
    EvenNorm,
    NotPrimitive,
    PreconditionViolated,
    ZeroInput,
    _shown,
)
from quatlat.rational import rational_factorize

__all__ = [
    "OrthogonalBasis",
    "orthogonal_basis",
    "in_orthogonal_lattice",
    "orthogonality_census",
    "representations",
    "representation_count",
    "DEFAULT_ENUM_BOUND",
]

DEFAULT_ENUM_BOUND = 10_000  # the largest norm a sphere walk touches
# The largest (2 * q_bound + 1) * sum(|alpha_i|) a box census packs.
_CENSUS_BOUND = 1_000_000


def _check_bound(n: int) -> None:
    if n > DEFAULT_ENUM_BOUND:
        raise BoundExceeded(
            f"norm {_shown(n)} exceeds the enumeration bound {DEFAULT_ENUM_BOUND}"
        )


class OrthogonalBasis(NamedTuple):
    """Basis of the Lipschitz vectors orthogonal to alpha, gcd(a, b, c, d) = 1.

    permutation records which construction produced it: "ab-cd" for the
    generic two-pair formula, "a=b=0" or "c=d=0" for the degenerate
    substitutes.
    """

    beta1: HurwitzQuaternion
    beta2: HurwitzQuaternion
    beta3: HurwitzQuaternion
    permutation: str

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return (self.beta1.coords, self.beta2.coords, self.beta3.coords)


def orthogonal_basis(alpha: HurwitzQuaternion) -> OrthogonalBasis:
    """Explicit basis of the orthogonal lattice of alpha = a+bi+cj+dk.

    Lemma 4.2 as a vector-product identity: cross3(beta1, beta2, beta3)
    is -alpha for "ab-cd" and alpha for "a=b=0" and "c=d=0".  alpha must
    be Lipschitz with gcd(a, b, c, d) = 1; an all-odd alpha such as
    1+i+j+3k qualifies, though 2 divides it in the Hurwitz order.

    Raises:
        ZeroInput: for alpha = 0.
        NotLipschitz: for half-odd alpha.
        NotPrimitive: when gcd(a, b, c, d) > 1.
    """
    rows, permutation = _basis_rows(alpha)
    beta1, beta2, beta3 = (HurwitzQuaternion.from_coords(*row) for row in rows)
    return OrthogonalBasis(beta1, beta2, beta3, permutation)


def _primitive_coords(alpha: HurwitzQuaternion) -> tuple[int, ...]:
    """alpha's coordinates, after the precondition of orthogonal_basis."""
    if alpha.is_zero:
        raise ZeroInput("the orthogonal lattice of 0 is not rank 3")
    coords = alpha.coords
    if gcd(*coords) != 1:
        raise NotPrimitive(f"{_shown(alpha)} has content > 1")
    return coords


def _basis_rows(alpha: HurwitzQuaternion):
    """`orthogonal_basis` as integer coordinate rows: (rows, permutation)."""
    a, b, c, d = _primitive_coords(alpha)
    if a == 0 and b == 0:
        return ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, d, -c)), "a=b=0"
    if c == 0 and d == 0:
        return ((b, -a, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "c=d=0"
    g1, x0, y0 = xgcd(a, b)
    g2, z0, t0 = xgcd(c, d)
    return (
        (g2 * x0, g2 * y0, -g1 * z0, -g1 * t0),
        (b // g1, -(a // g1), 0, 0),
        (0, 0, d // g2, -(c // g2)),
    ), "ab-cd"


def in_orthogonal_lattice(alpha: HurwitzQuaternion, q: HurwitzQuaternion) -> bool:
    """Whether q lies in the orthogonal lattice of alpha.

    By the definition: q is Lipschitz with q . alpha = 0, and no basis
    is read.  alpha must meet the precondition of orthogonal_basis, and
    raises as it does.
    """
    _primitive_coords(alpha)
    return q.is_lipschitz and _kernel.qdot4(alpha.doubled, q.doubled) == 0


def orthogonality_census(
    alpha: HurwitzQuaternion, q_bound: int
) -> tuple[int, int]:
    """Exhaustive basis check over a coordinate box.

    Counts Lipschitz q with coordinates in [-q_bound, q_bound]
    orthogonal to alpha, and how many of those fail to be integer
    combinations of orthogonal_basis(alpha).  The failures are 0 by
    proof: the basis must carry the vector-product certificate
    `_spans_orthogonal_lattice` (proved in
    `count_orthogonality_failures`), and one without it raises
    RuntimeError rather than be counted.  alpha must meet the
    precondition of orthogonal_basis, and raises as it does.

    The count packs the box into one integer of about
    k * (2 * q_bound + 1) * sum(|alpha_i|) bits, so the census refuses
    a box with (2 * q_bound + 1) * sum(|alpha_i|) above 1,000,000
    before it allocates anything.  Within that bound k is at most 54,
    and the largest integer packed is about 6.8 MB.

    Raises:
        BoundExceeded: when (2 * q_bound + 1) * sum(|alpha_i|) exceeds
            1,000,000.
    """
    rows = _basis_rows(alpha)[0]
    coords = alpha.coords
    span = (2 * q_bound + 1) * sum(map(abs, coords))
    if span > _CENSUS_BOUND:
        raise BoundExceeded(
            f"(2 * q_bound + 1) * sum(|alpha_i|) = {_shown(span)} exceeds"
            f" the census bound {_CENSUS_BOUND}"
        )
    return _kernel.count_orthogonality_failures(coords, rows, q_bound)


def representations(n: int, hurwitz: bool = False) -> list[HurwitzQuaternion]:
    """All Hurwitz quaternions of norm n, lexicographically ordered.

    Lipschitz elements only by default; hurwitz=True adds the half-odd
    ones (present only for odd n).

    Raises:
        PreconditionViolated: for n < 1.
        BoundExceeded: when n exceeds DEFAULT_ENUM_BOUND.
    """
    if n < 1:
        raise PreconditionViolated(f"norm must be positive, got {_shown(n)}")
    _check_bound(n)
    return HurwitzQuaternion._raw_many(_kernel.norm_representations(n, hurwitz))


def representation_count(n: int) -> int:
    """Number of Lipschitz representations of an odd norm n.

    Restricting to odd n keeps the classical divisor-sum count in
    scope: by Jacobi's four-square theorem the result is 8 times the
    sum of divisors of n.  It is computed from the prime factorization
    of n, with no sphere walk, so unlike `representations` it has no
    enumeration bound.

    Raises:
        EvenNorm: for even n.
        PreconditionViolated: for n < 1.
    """
    if n % 2 == 0:
        raise EvenNorm(f"representation_count needs odd n, got {_shown(n)}")
    if n < 1:
        raise PreconditionViolated(f"norm must be positive, got {_shown(n)}")
    sigma = 1
    if n > 1:
        for p, e in Counter(rational_factorize(n)).items():
            sigma *= (p ** (e + 1) - 1) // (p - 1)
    return 8 * sigma
