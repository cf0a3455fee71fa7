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
from quatlat._kernel.pure import xgcd
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


# Public gcds reduce modulo the gcd of the norms only from this norm up:
# below it the reduction buys nothing, and small arguments keep the
# plain loop's witnesses, which perfbench/reference.json digests for the
# CLI's gcd and factor literals.
_REDUCE_FROM = 1 << 32

_ONE = (2, 0, 0, 0)
_ZERO = (0, 0, 0, 0)


def gcd(
    a: HurwitzQuaternion, b: HurwitzQuaternion, side: str = "right"
) -> GcdResult:
    """One-sided gcd via the Euclidean loop, with Bezout witnesses.

    gcd(a, 0) is the canonical associate of a.  A unit gcd means the
    pair generates the whole order on that side.

    When min(N(a), N(b)) >= 2**32 the loop runs on reduced
    generators of the same ideal.  For a right gcd, the generator of
    the left ideal Ha + Hb: N(a) = conj(a)*a lies in Ha and N(b) in
    Hb, so with s*N(a) + t*N(b) = m = gcd(N(a), N(b)) the integer
    m = (s*conj(a))*a + (t*conj(b))*b lies in Ha + Hb.  m is central,
    so a = c_a*m + a' with c_a Lipschitz and every doubled entry of a'
    in [-m, m) keeps the parity of a, and Ha + Hb = Ha' + Hm + Hb'.
    The loop runs on (a', m), then on that gcd and b'.  The left gcd is
    the mirror image: aH + bH, m = a*(s*conj(a)) + b*(t*conj(b)),
    a = m*c_a + a'.

    The loop tracks only the witness x, starting on the reduced path
    from the coefficients of a in m and in a - m*c_a.  There x is then
    reduced modulo N(b1)*H, N(b1) = N(b)/N(g), keeping its parity:
    with a = a1*g and b = b1*g, N(b1)*a = (a1*conj(b1))*b, so adding
    N(b1)*H to x moves only y (for a left gcd, a = g*a1, b = g*b1 and
    a*N(b1) = b*(conj(b1)*a1)).  Every doubled entry of x is then at
    most N(b)/N(g) in size.  Once g is canonicalized, y is recovered by
    one exact division (`cofactor`): y*b = g - x*a for a right gcd, so
    y = (g - x*a) * conj(b) / N(b), and b*y = g - a*x for a left gcd,
    so y = conj(b) * (g - a*x) / N(b).  For b = 0, y = 0.

    Raises:
        BothZero: when both arguments are zero.
    """
    _check_side(side)
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    return _gcd(a, b, side, min(a.norm(), b.norm()) >= _REDUCE_FROM)


def _gcd(
    a: HurwitzQuaternion, b: HurwitzQuaternion, side: str, reduce: bool
) -> GcdResult:
    """`gcd` on the reduced path or the plain loop, as reduce says."""
    right = side == "right"
    if reduce:
        r, x = _reduced_euclid(a.doubled, b.doubled, right)
    else:
        r, x = _euclid(a.doubled, _ONE, b.doubled, _ZERO, right)
    g = HurwitzQuaternion._raw(r)
    # Canonicalize on the generating side: unit*g generates the same
    # left ideal, g*unit the same right ideal.
    canon, unit = canonical_associate(g, "left" if right else "right")
    if right:
        x = _kernel.qmul(unit.doubled, x)
    else:
        x = _kernel.qmul(x, unit.doubled)
    if reduce and not b.is_zero:
        x = _split(x, b.norm() // canon.norm())[1]
    x = HurwitzQuaternion._raw(x)
    if b.is_zero:
        y = ZERO
    else:
        y = cofactor(canon - x * a if right else canon - a * x, b, side)
    return GcdResult(canon, x, y, side)


def _euclid(r0, x0, r1, x1, right):
    """Euclid's loop on doubled r0, r1 whose witnesses are x0, x1.

    A witness is the coefficient of the gcd's first argument: x*a on
    the left of it for a right gcd, a*x for a left one.  Returns the
    last nonzero remainder and its witness.
    """
    # Remainders r = a - q*b keep common right divisors, r = a - b*q
    # common left divisors.
    quotient_right = not right
    while r1 != _ZERO:
        q, r2 = _kernel.qdivmod(r0, r1, quotient_right)
        if right:
            x2 = _kernel.qsub(x0, _kernel.qmul(q, x1))
        else:
            x2 = _kernel.qsub(x0, _kernel.qmul(x1, q))
        r0, x0 = r1, x1
        r1, x1 = r2, x2
    return r0, x0


def _reduced_euclid(a, b, right):
    """Euclid's loop on a and b reduced modulo gcd(N(a), N(b)); see `gcd`."""
    m, s, _ = xgcd(_kernel.qnorm(a), _kernel.qnorm(b))
    w = tuple(s * c for c in _kernel.qconj(a))  # s*conj(a), the witness of m
    if m == 1:  # a unit gcd: m itself generates the ideal
        return _ONE, w
    ca, a_m = _split(a, m)
    cb, b_m = _split(b, m)
    # The witnesses of a' = a - c_a*m and b' = b - c_b*m (a - m*c_a and
    # b - m*c_b on the left).
    if right:
        x_a, x_b = _kernel.qmul(ca, w), _kernel.qmul(cb, w)
    else:
        x_a, x_b = _kernel.qmul(w, ca), _kernel.qmul(w, cb)
    x_a, x_b = _kernel.qsub(_ONE, x_a), _kernel.qneg(x_b)
    r, x = _euclid(a_m, x_a, (2 * m, 0, 0, 0), w, right)
    return _euclid(r, x, b_m, x_b, right)


def _split(u, n):
    """(c, u') with u = n*c + u', c Lipschitz, u' entries in [-n, n).

    Both are doubled tuples; u' keeps the parity of u.
    """
    two_n = 2 * n
    c = tuple((e + n) // two_n for e in u)
    return (
        tuple(2 * k for k in c),
        tuple(e - two_n * k for e, k in zip(u, c)),
    )


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
