"""One-sided Euclidean division and gcds in the Hurwitz order.

The Hurwitz order is Euclidean for both division senses: dividing by a
nonzero beta always admits a remainder of norm at most norm(beta)/2,
because the exact quotient is never farther than 1/sqrt(2) from a
Hurwitz point.  Restricted to integer-coordinate quotients only the
weaker bound norm(remainder) <= norm(beta) holds, with equality
possible; the ``lipschitz_only`` flag exposes that restricted division.

Side vocabulary used throughout:

* ``divide(a, b, side="right")`` puts the quotient on the right of the
  divisor: a = b*q + r.  ``side="left"`` solves a = q*b + r.
* ``gcd(a, b, side="right")`` is the greatest common right divisor (the
  generator of the left ideal H*a + H*b); ``side="left"`` the greatest
  common left divisor (generator of a*H + b*H).
"""

from __future__ import annotations

from dataclasses import dataclass

from quatlat import _kernel
from quatlat.core import (
    ZERO,
    GaussianInteger,
    HurwitzQuaternion,
    _check_side,
    canonical_associate,
    cofactor,
)
from quatlat.errors import BothZero, DivisionByZero

__all__ = [
    "DivisionResult",
    "GcdResult",
    "divide",
    "gcd",
    "is_multiple",
    "gaussian_gcd",
]

@dataclass(frozen=True)
class DivisionResult:
    """Outcome of one-sided division.

    side "right" satisfies dividend = divisor * quotient + remainder,
    side "left" satisfies dividend = quotient * divisor + remainder.
    """

    quotient: HurwitzQuaternion
    remainder: HurwitzQuaternion
    side: str


@dataclass(frozen=True)
class GcdResult:
    """A one-sided gcd together with its Bezout witnesses.

    For side "right": gcd == x*a + y*b and gcd right-divides both a
    and b.  For side "left": gcd == a*x + b*y and gcd left-divides
    both.  The representative is the lexicographically smallest doubled
    quadruple among the 24 associates on the generating side.
    """

    gcd: HurwitzQuaternion
    x: HurwitzQuaternion
    y: HurwitzQuaternion
    side: str


def divide(
    dividend: HurwitzQuaternion,
    divisor: HurwitzQuaternion,
    side: str = "right",
    lipschitz_only: bool = False,
) -> DivisionResult:
    """Divide with the quotient on the named side of the divisor.

    The exact quotient is rounded to the nearest integer-coordinate
    point and to the nearest half-odd point; the candidate with the
    smaller remainder norm wins, ties going to the lexicographically
    smaller quotient.  The winning remainder satisfies
    norm(r) <= norm(divisor) / 2 (or <= norm(divisor) when
    lipschitz_only suppresses the half-odd candidate).

    Raises:
        DivisionByZero: when divisor is zero.
    """
    _check_side(side)
    if divisor.is_zero:
        raise DivisionByZero("quaternion division by zero")
    q, r = _kernel.qdivmod(
        dividend.doubled, divisor.doubled, side == "right", lipschitz_only
    )
    return DivisionResult(
        HurwitzQuaternion._raw(q), HurwitzQuaternion._raw(r), side
    )


def gcd(
    a: HurwitzQuaternion, b: HurwitzQuaternion, side: str = "right"
) -> GcdResult:
    """One-sided gcd via the Euclidean loop, with Bezout witnesses.

    gcd(a, 0) is the canonical associate of a.  A unit gcd means the
    pair generates the whole order on that side.

    The loop tracks only the witness x.  Once g is canonicalized, y is
    recovered by one exact division (`cofactor`): y*b = g - x*a for a
    right gcd, so y = (g - x*a) * conj(b) / N(b), and b*y = g - a*x for
    a left gcd, so y = conj(b) * (g - a*x) / N(b).  A nonzero b is
    invertible, so this is the y the loop would have carried; for
    b = 0, y = 0.

    Raises:
        BothZero: when both arguments are zero.
    """
    _check_side(side)
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    right = side == "right"
    # Remainders r = a - q*b keep common right divisors, r = a - b*q
    # common left divisors.
    quotient_right = not right
    r0, r1 = a.doubled, b.doubled
    x0, x1 = (2, 0, 0, 0), (0, 0, 0, 0)
    while r1 != (0, 0, 0, 0):
        q, r2 = _kernel.qdivmod(r0, r1, quotient_right)
        if right:
            x2 = _kernel.qsub(x0, _kernel.qmul(q, x1))
        else:
            x2 = _kernel.qsub(x0, _kernel.qmul(x1, q))
        r0, x0 = r1, x1
        r1, x1 = r2, x2
    g = HurwitzQuaternion._raw(r0)
    # Canonicalize on the generating side: unit*g generates the same
    # left ideal, g*unit the same right ideal.
    canon, unit = canonical_associate(g, "left" if right else "right")
    if right:
        x = HurwitzQuaternion._raw(_kernel.qmul(unit.doubled, x0))
    else:
        x = HurwitzQuaternion._raw(_kernel.qmul(x0, unit.doubled))
    if b.is_zero:
        y = ZERO
    else:
        y = cofactor(canon - x * a if right else canon - a * x, b, side)
    return GcdResult(canon, x, y, side)


def is_multiple(
    a: HurwitzQuaternion,
    d: HurwitzQuaternion,
    side: str,
    lipschitz_cofactor: bool = False,
) -> bool:
    """Whether a lies in d*H (side "left") or H*d (side "right").

    With lipschitz_cofactor=True membership is in d*L or L*d instead:
    the cofactor must have integer coordinates.
    """
    m = cofactor(a, d, side)
    if m is None:
        return False
    return m.is_lipschitz if lipschitz_cofactor else True


def gaussian_gcd(z: GaussianInteger, w: GaussianInteger) -> GaussianInteger:
    """gcd in Z[i], canonicalized into the half-open first quadrant.

    The representative has re > 0 and im >= 0 (so unit gcds come back
    as 1).  Nearest-integer rounding keeps every remainder norm at most
    half the divisor norm.

    Raises:
        BothZero: when both arguments are zero.
    """
    if z.is_zero and w.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    # z = a + bi, w = c + di on plain ints; q rounds z*conj(w)/N(w).
    a, b, c, d = z.re, z.im, w.re, w.im
    while c or d:
        n = c * c + d * d
        qr = (2 * (a * c + b * d) + n) // (2 * n)
        qi = (2 * (b * c - a * d) + n) // (2 * n)
        a, b, c, d = c, d, a - qr * c + qi * d, b - qr * d - qi * c
    while not (a > 0 and b >= 0):
        a, b = -b, a
    return GaussianInteger(a, b)
