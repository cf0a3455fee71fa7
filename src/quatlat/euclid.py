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
  common left divisor (generator of a*H + b*H).  At every size it runs
  Euclid's loop on a and b reduced modulo gcd(N(a), N(b)), and every
  doubled entry of its witness x is at most N(b)/N(g) in size.
"""

from __future__ import annotations

from math import gcd as _int_gcd
from typing import NamedTuple

from quatlat import _kernel
from quatlat.core import (
    ZERO,
    GaussianInteger,
    HurwitzQuaternion,
    _canonical,
    _check_side,
    _exact_quotient,
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

class DivisionResult(NamedTuple):
    """Outcome of one-sided division.

    side "right" satisfies dividend = divisor * quotient + remainder,
    side "left" satisfies dividend = quotient * divisor + remainder.
    """

    quotient: HurwitzQuaternion
    remainder: HurwitzQuaternion
    side: str


class GcdResult(NamedTuple):
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
        ValueError: unless side is "left" or "right".
    """
    _check_side(side)
    d = divisor._d
    if d == _ZERO:
        raise DivisionByZero("quaternion division by zero")
    q, r = _kernel.qdivmod(dividend._d, d, side == "right", lipschitz_only)
    return DivisionResult(
        HurwitzQuaternion._raw(q), HurwitzQuaternion._raw(r), side
    )


# `_cli_gcd` runs the plain loop below this norm.
_REDUCE_FROM = 1 << 32

_ONE = (2, 0, 0, 0)
_ZERO = (0, 0, 0, 0)


def gcd(
    a: HurwitzQuaternion, b: HurwitzQuaternion, side: str = "right"
) -> GcdResult:
    """One-sided gcd via the Euclidean loop, with Bezout witnesses.

    gcd(a, 0) is the canonical associate of a.  A unit gcd means the
    pair generates the whole order on that side.

    The loop runs on reduced generators of the same ideal, at every
    size.  For a right gcd, the generator of the left ideal Ha + Hb:
    N(a) = conj(a)*a lies in Ha and N(b) in Hb, so with
    s*N(a) + t*N(b) = m = gcd(N(a), N(b)) the integer
    m = (s*conj(a))*a + (t*conj(b))*b lies in Ha + Hb.  Only s is
    needed: the inverse of N(a)/m modulo N(b)/m, taken in C by `pow`
    and centred on 0 (see `_bezout`).  m is central, so a = c_a*m + a'
    with c_a Lipschitz and every doubled entry of a' in [-m, m) keeps
    the parity of a, and Ha + Hb = Ha' + Hm + Hb'.  The loop runs on
    (a', m), then on that gcd and b'; a zero argument has norm 0, so m
    is the other norm.  The left gcd is the mirror image: aH + bH,
    m = a*(s*conj(a)) + b*(t*conj(b)), a = m*c_a + a'.

    The loop tracks only the witness x, starting from the coefficients
    of a in m and in a - m*c_a.  x is then reduced modulo N(b1)*H,
    N(b1) = N(b)/N(g), keeping its parity: with a = a1*g and b = b1*g,
    N(b1)*a = (a1*conj(b1))*b, so adding N(b1)*H to x moves only y (for
    a left gcd, a = g*a1, b = g*b1 and a*N(b1) = b*(conj(b1)*a1)).  So
    for every nonzero b, at every size, each doubled entry of x is at
    most N(b)/N(g) in size.  Once g is canonicalized (the closed form of
    `canonical_associate`), y is recovered by one exact division:
    y*b = g - x*a for a right gcd, so y = (g - x*a) * conj(b) / N(b),
    and b*y = g - a*x for a left gcd, so y = conj(b) * (g - a*x) / N(b).
    For b = 0, y = 0.  All of this runs on doubled tuples; the
    quaternion objects are built only for the result.

    Raises:
        BothZero: when both arguments are zero.
        ValueError: unless side is "left" or "right".
    """
    _check_side(side)
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    na, nb = a.norm(), b.norm()
    right = side == "right"
    a, b = a.doubled, b.doubled
    m, s = _bezout(na, nb)
    a0, a1, a2, a3 = a
    x = (s * a0, -s * a1, -s * a2, -s * a3)  # s*conj(a), the witness of m
    r = (2 * m, 0, 0, 0)
    if m != 1:  # else a unit gcd: m itself generates the ideal
        ca, a_m = _split(a, m)
        cb, b_m = _split(b, m)
        # The witnesses of a' = a - c_a*m and b' = b - c_b*m (a - m*c_a and
        # b - m*c_b on the left).
        if right:
            x_a, x_b = _kernel.qmul(ca, x), _kernel.qmul(cb, x)
        else:
            x_a, x_b = _kernel.qmul(x, ca), _kernel.qmul(x, cb)
        x_a, x_b = _kernel.qsub(_ONE, x_a), _kernel.qneg(x_b)
        r, x = _euclid(a_m, x_a, r, x, right)
        r, x = _euclid(r, x, b_m, x_b, right)
    return _gcd_result(r, x, a, b, nb, side, True)


def _cli_gcd(a, b, side):
    """`gcd`, with the plain loop's witnesses below min(N(a), N(b)) = 2**32.

    The gcd is the same.  This exists only for the CLI's `gcd` output, whose
    witnesses perfbench/reference.json digests for 40 argv; ROADMAP item 3
    deletes it, with `_REDUCE_FROM`, when those keys are re-recorded.
    """
    nb = b.norm()
    if min(a.norm(), nb) >= _REDUCE_FROM or (a.is_zero and b.is_zero):
        return gcd(a, b, side)  # which raises BothZero for (0, 0)
    _check_side(side)
    r, x = _euclid(a.doubled, _ONE, b.doubled, _ZERO, side == "right")
    return _gcd_result(r, x, a.doubled, b.doubled, nb, side, False)


def _gcd_result(r, x, a, b, nb, side, reduce_x):
    """`GcdResult` from Euclid's last remainder r and its witness x.

    Canonicalizes r on the generating side (unit*g generates the same
    left ideal, g*unit the same right ideal), reduces x modulo N(b)/N(g)
    if reduce_x, and recovers y by one exact division; see `gcd`.
    """
    right = side == "right"
    g, unit = _canonical(r, right)
    x = _kernel.qmul(unit, x) if right else _kernel.qmul(x, unit)
    if nb == 0:
        y = ZERO
    else:
        if reduce_x:
            x = _split(x, nb // _kernel.qnorm(g))[1]
        if right:
            y = _kernel.qmul(_kernel.qsub(g, _kernel.qmul(x, a)), _kernel.qconj(b))
        else:
            y = _kernel.qmul(_kernel.qconj(b), _kernel.qsub(g, _kernel.qmul(a, x)))
        y = _exact_quotient(y, nb)
    return GcdResult(HurwitzQuaternion._raw(g), HurwitzQuaternion._raw(x), y, side)


def _canonical_gcd(a, b, right):
    """`gcd(a, b, "right" if right else "left").gcd`, with no witnesses.

    The canonical associate on the generating side is unique, so the
    plain loop gives the same gcd as the reduced path.
    """
    g = _kernel.qgcd(a.doubled, b.doubled, right)
    return HurwitzQuaternion._raw(_canonical(g, right)[0])


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


def _bezout(na, nb):
    """(m, s) with m = gcd(na, nb) and s*na = m modulo nb, for na, nb >= 0.

    s is the coefficient of na that `pure.xgcd(na, nb)` returns: the
    inverse of na/m modulo nb/m in (-nb/2m, nb/2m], 0 when nb = m (the
    inverse modulo 1, as `pow` gives it) and 1 when nb = 0.
    """
    m = _int_gcd(na, nb)
    if nb == 0:
        return m, 1
    k = nb // m
    s = pow(na // m, -1, k)
    return m, s - k if 2 * s > k else s


def _split(u, n):
    """(c, u') with u = n*c + u', c Lipschitz, u' entries in [-n, n).

    Both are doubled tuples; u' keeps the parity of u.
    """
    two_n = 2 * n
    u0, u1, u2, u3 = u
    k0 = (u0 + n) // two_n
    k1 = (u1 + n) // two_n
    k2 = (u2 + n) // two_n
    k3 = (u3 + n) // two_n
    return (
        (2 * k0, 2 * k1, 2 * k2, 2 * k3),
        (u0 - two_n * k0, u1 - two_n * k1, u2 - two_n * k2, u3 - two_n * k3),
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

    Raises:
        DivisionByZero: when d is zero.
        ValueError: unless side is "left" or "right".
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
