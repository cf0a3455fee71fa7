"""Orthogonal sublattices of the Lipschitz order and norm enumerations.

For a primitive Lipschitz quaternion alpha = a + bi + cj + dk the rank-3
lattice of Lipschitz vectors orthogonal to alpha has an explicit basis
assembled from two extended-gcd identities, one on the coordinate pair
(a, b) and one on (c, d):

    beta1 = g2*(x0 + y0*i) - g1*(z0 + t0*i)*j
    beta2 = (b - a*i) / g1
    beta3 = ((d - c*i) / g2) * j

with g1 = gcd(a, b) = a*x0 + b*y0 and g2 = gcd(c, d) = c*z0 + d*t0.
When one coordinate pair vanishes the construction degenerates and a
substitute basis is returned instead (the other pair is then coprime,
by primitivity).  Membership testing runs both the inner-product
characterization and exact integer linear algebra and insists they
agree, so a completeness failure of the formula would surface loudly
rather than be papered over.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd

from quatlat import _kernel
from quatlat._kernel.pure import combination_solver
from quatlat.core import HurwitzQuaternion, is_primitive
from quatlat.errors import (
    BoundExceeded,
    EvenNorm,
    NotPrimitive,
    PreconditionViolated,
    ZeroInput,
)

__all__ = [
    "OrthogonalBasis",
    "orthogonal_basis",
    "in_orthogonal_lattice",
    "orthogonality_census",
    "representations",
    "representation_count",
    "enumeration_bound",
    "DEFAULT_ENUM_BOUND",
]

DEFAULT_ENUM_BOUND = 10_000

_ENV_BOUND = "QUATLAT_ENUM_BOUND"


def enumeration_bound() -> int:
    """The largest norm enumeration-backed operations will touch.

    Defaults to 10000; the QUATLAT_ENUM_BOUND environment variable
    overrides it.
    """
    raw = os.environ.get(_ENV_BOUND)
    if raw is None:
        return DEFAULT_ENUM_BOUND
    try:
        value = int(raw)
    except ValueError as exc:
        raise PreconditionViolated(f"{_ENV_BOUND} must be an integer") from exc
    if value < 1:
        raise PreconditionViolated(f"{_ENV_BOUND} must be positive")
    return value


def _check_bound(n: int, bound: int | None) -> None:
    limit = enumeration_bound() if bound is None else bound
    if n > limit:
        raise BoundExceeded(f"norm {n} exceeds the enumeration bound {limit}")


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class OrthogonalBasis:
    """Basis of the Lipschitz vectors orthogonal to a primitive alpha.

    permutation records which construction produced it: "ab-cd" for the
    generic two-pair formula, "a=b=0" or "c=d=0" for the degenerate
    substitutes.  The Bezout data for a vanished pair is stored as
    zeros.
    """

    beta1: HurwitzQuaternion
    beta2: HurwitzQuaternion
    beta3: HurwitzQuaternion
    g1: int
    g2: int
    x0: int
    y0: int
    z0: int
    t0: int
    permutation: str

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return (self.beta1.coords, self.beta2.coords, self.beta3.coords)


def orthogonal_basis(alpha: HurwitzQuaternion) -> OrthogonalBasis:
    """Explicit basis of the orthogonal lattice of a primitive alpha.

    Raises:
        ZeroInput: for alpha = 0.
        NotLipschitz: for half-odd alpha.
        NotPrimitive: when an integer > 1 divides alpha.
    """
    if alpha.is_zero:
        raise ZeroInput("the orthogonal lattice of 0 is not rank 3")
    a, b, c, d = alpha.coords
    if not is_primitive(alpha):
        raise NotPrimitive(f"{alpha} has content > 1")
    if a == 0 and b == 0:
        g2, z0, t0 = _xgcd(c, d)
        return OrthogonalBasis(
            HurwitzQuaternion.from_coords(1, 0, 0, 0),
            HurwitzQuaternion.from_coords(0, 1, 0, 0),
            HurwitzQuaternion.from_coords(0, 0, d, -c),
            0,
            g2,
            0,
            0,
            z0,
            t0,
            "a=b=0",
        )
    if c == 0 and d == 0:
        g1, x0, y0 = _xgcd(a, b)
        return OrthogonalBasis(
            HurwitzQuaternion.from_coords(b, -a, 0, 0),
            HurwitzQuaternion.from_coords(0, 0, 1, 0),
            HurwitzQuaternion.from_coords(0, 0, 0, 1),
            g1,
            0,
            x0,
            y0,
            0,
            0,
            "c=d=0",
        )
    g1, x0, y0 = _xgcd(a, b)
    g2, z0, t0 = _xgcd(c, d)
    beta1 = HurwitzQuaternion.from_coords(
        g2 * x0, g2 * y0, -g1 * z0, -g1 * t0
    )
    beta2 = HurwitzQuaternion.from_coords(b // g1, -(a // g1), 0, 0)
    beta3 = HurwitzQuaternion.from_coords(0, 0, d // g2, -(c // g2))
    return OrthogonalBasis(
        beta1, beta2, beta3, g1, g2, x0, y0, z0, t0, "ab-cd"
    )


def in_orthogonal_lattice(alpha: HurwitzQuaternion, q: HurwitzQuaternion) -> bool:
    """Whether q lies in the orthogonal lattice of the primitive alpha.

    Decides by the inner-product characterization (q Lipschitz with
    q . alpha = 0) and independently by solving for integer basis
    coefficients; the two must agree, anything else reports a broken
    basis rather than silently picking a side.
    """
    basis = orthogonal_basis(alpha)
    if not q.is_lipschitz:
        return False
    by_dot = _kernel.qdot4(alpha.doubled, q.doubled) == 0
    by_combination = combination_solver(basis.rows())(q.coords) is not None
    if by_dot != by_combination:
        raise RuntimeError(
            f"orthogonal basis of {alpha} is inconsistent at {q}: "
            f"inner product says {by_dot}, basis solve says {by_combination}"
        )
    return by_dot


def orthogonality_census(
    alpha: HurwitzQuaternion, q_bound: int
) -> tuple[int, int]:
    """Exhaustive basis check over a coordinate box.

    Counts Lipschitz q with coordinates in [-q_bound, q_bound]
    orthogonal to alpha, and how many of those fail to be integer
    combinations of orthogonal_basis(alpha).  A correct basis gives
    (count, 0).
    """
    basis = orthogonal_basis(alpha)
    return _kernel.count_orthogonality_failures(
        alpha.coords, basis.rows(), q_bound
    )


def representations(
    n: int, hurwitz: bool = False, bound: int | None = None
) -> list[HurwitzQuaternion]:
    """All Hurwitz quaternions of norm n, lexicographically ordered.

    Lipschitz elements only by default; hurwitz=True adds the half-odd
    ones (present only for odd n).

    Raises:
        PreconditionViolated: for n < 1.
        BoundExceeded: when n exceeds the enumeration bound.
    """
    if n < 1:
        raise PreconditionViolated(f"norm must be positive, got {n}")
    _check_bound(n, bound)
    return HurwitzQuaternion._raw_many(_kernel.norm_representations(n, hurwitz))


def representation_count(n: int, bound: int | None = None) -> int:
    """Number of Lipschitz representations of an odd norm n.

    Restricting to odd n keeps the classical divisor-sum count in
    scope: the result equals 8 times the sum of divisors of n.

    Raises:
        EvenNorm: for even n.
    """
    if n % 2 == 0:
        raise EvenNorm(f"representation_count needs odd n, got {n}")
    return len(representations(n, hurwitz=False, bound=bound))
