"""Hurwitz quaternion and Gaussian integer arithmetic.

The central type stores doubled coordinates: the quaternion
(a + bi + cj + dk)/2 is held as the integer quadruple (a, b, c, d).
A quadruple is valid when its entries are all even (an integer-
coordinate, or Lipschitz, quaternion) or all odd (a half-odd Hurwitz
quaternion); anything else raises MixedParity.  This makes every ring
operation exact integer arithmetic with no rationals anywhere on the
hot paths.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import product, repeat
from math import gcd
from typing import Iterator

from quatlat import _kernel
from quatlat.errors import (
    DivisionByZero,
    MixedParity,
    NotLipschitz,
    PreconditionViolated,
    ZeroInput,
    _shown,
)

__all__ = [
    "HurwitzQuaternion",
    "GaussianInteger",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "OMEGA",
    "UNITS",
    "units",
    "inner_product",
    "cofactor",
    "is_associate",
    "associates",
    "canonical_associate",
    "content",
    "is_primitive",
    "is_primitive_mod",
    "embed_gaussian_pair",
]


class HurwitzQuaternion:
    """An element of the Hurwitz order, stored in doubled coordinates.

    Instances are immutable and hashable.  Arithmetic stays in exact
    integers; ``norm`` is always an ordinary nonnegative int and
    ``inner_product`` a Fraction with denominator 1 or 2.
    """

    __slots__ = ("_d",)

    def __init__(self, d0: int, d1: int, d2: int, d3: int):
        """Build from doubled coordinates; (2, 4, 6, 8) is 1+2i+3j+4k.

        Raises:
            MixedParity: unless the four entries are all even or all odd.
        """
        if (d0 ^ d1) & 1 or (d0 ^ d2) & 1 or (d0 ^ d3) & 1:
            coords = ", ".join(map(_shown, (d0, d1, d2, d3)))
            raise MixedParity(
                f"doubled coordinates ({coords}) are neither all even nor all odd"
            )
        self._d = (d0, d1, d2, d3)

    @staticmethod
    def _raw(d) -> "HurwitzQuaternion":
        # Trusted constructor for values produced by the kernel, which
        # preserves parity by construction.  A staticmethod: no bound
        # method is made per call.
        self = object.__new__(HurwitzQuaternion)
        self._d = d
        return self

    @classmethod
    def _raw_many(cls, ds: list) -> list["HurwitzQuaternion"]:
        # Trusted bulk constructor, as _raw, for a whole kernel list: the
        # instances come from one map over object.__new__ and their slot
        # is filled through its descriptor, with no per-item Python frame.
        out = list(map(object.__new__, repeat(cls, len(ds))))
        deque(map(cls._d.__set__, out, ds), maxlen=0)
        return out

    @classmethod
    def from_coords(cls, a: int, b: int, c: int, d: int) -> "HurwitzQuaternion":
        """The Lipschitz quaternion a + bi + cj + dk."""
        return cls._raw((2 * a, 2 * b, 2 * c, 2 * d))

    @classmethod
    def from_integer(cls, n: int) -> "HurwitzQuaternion":
        return cls._raw((2 * n, 0, 0, 0))

    @property
    def doubled(self) -> tuple[int, int, int, int]:
        """The stored doubled-coordinate quadruple."""
        return self._d

    @property
    def is_lipschitz(self) -> bool:
        return self._d[0] % 2 == 0

    @property
    def coords(self) -> tuple[int, int, int, int]:
        """Integer coordinates (a, b, c, d).

        Raises:
            NotLipschitz: for half-odd elements.
        """
        if self._d[0] % 2:
            raise NotLipschitz(f"{_shown(self)} has half-odd coordinates")
        d = self._d
        return (d[0] // 2, d[1] // 2, d[2] // 2, d[3] // 2)

    @property
    def is_zero(self) -> bool:
        return self._d == (0, 0, 0, 0)

    @property
    def is_unit(self) -> bool:
        return _kernel.qnorm(self._d) == 1

    def conjugate(self) -> "HurwitzQuaternion":
        return HurwitzQuaternion._raw(_kernel.qconj(self._d))

    def norm(self) -> int:
        return _kernel.qnorm(self._d)

    def __add__(self, other: "HurwitzQuaternion") -> "HurwitzQuaternion":
        if not isinstance(other, HurwitzQuaternion):
            return NotImplemented
        return HurwitzQuaternion._raw(_kernel.qadd(self._d, other._d))

    def __sub__(self, other: "HurwitzQuaternion") -> "HurwitzQuaternion":
        if not isinstance(other, HurwitzQuaternion):
            return NotImplemented
        return HurwitzQuaternion._raw(_kernel.qsub(self._d, other._d))

    def __neg__(self) -> "HurwitzQuaternion":
        return HurwitzQuaternion._raw(_kernel.qneg(self._d))

    def __mul__(self, other):
        if isinstance(other, HurwitzQuaternion):
            return HurwitzQuaternion._raw(_kernel.qmul(self._d, other._d))
        if isinstance(other, int):
            d = self._d
            return HurwitzQuaternion._raw(
                (d[0] * other, d[1] * other, d[2] * other, d[3] * other)
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "HurwitzQuaternion":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        # Square and multiply over the bits from the top: O(log e) products.
        result = ONE
        for bit in bin(exponent)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, HurwitzQuaternion) and self._d == other._d

    def __hash__(self) -> int:
        return hash(self._d)

    def __bool__(self) -> bool:
        return self._d != (0, 0, 0, 0)

    def __repr__(self) -> str:
        return f"HurwitzQuaternion{self._d!r}"

    def __str__(self) -> str:
        d0, d1, d2, d3 = self._d
        if d0 & 1:
            # Half-odd: all four coordinates are odd, so none is zero.
            return f"{d0}/2{d1:+}/2i{d2:+}/2j{d3:+}/2k"
        terms = [f"{d0 // 2}"] if d0 else []
        if d1:
            terms.append("i" if d1 == 2 else "-i" if d1 == -2 else f"{d1 // 2}i")
        if d2:
            terms.append("j" if d2 == 2 else "-j" if d2 == -2 else f"{d2 // 2}j")
        if d3:
            terms.append("k" if d3 == 2 else "-k" if d3 == -2 else f"{d3 // 2}k")
        return "+".join(terms).replace("+-", "-") or "0"


ZERO = HurwitzQuaternion(0, 0, 0, 0)
ONE = HurwitzQuaternion.from_integer(1)
I = HurwitzQuaternion.from_coords(0, 1, 0, 0)
J = HurwitzQuaternion.from_coords(0, 0, 1, 0)
K = HurwitzQuaternion.from_coords(0, 0, 0, 1)
OMEGA = HurwitzQuaternion(1, 1, 1, 1)


_UNIT_DOUBLED = tuple(_kernel.norm_representations(1, True))
#: The 24 invertible Hurwitz integers, sorted by doubled quadruple.
UNITS: tuple[HurwitzQuaternion, ...] = tuple(HurwitzQuaternion._raw_many(_UNIT_DOUBLED))


def units() -> tuple[HurwitzQuaternion, ...]:
    """The unit group of the Hurwitz order: 8 signed axes, 16 half-odd."""
    return UNITS


def inner_product(u: HurwitzQuaternion, v: HurwitzQuaternion) -> Fraction:
    """Euclidean inner product; exact, integer-valued on Lipschitz pairs."""
    return Fraction(_kernel.qdot4(u.doubled, v.doubled), 4)


# The sides of a one-sided operation, in the order `--side` lists them.
_SIDES = ("left", "right")


def _check_side(side: str) -> None:
    if side not in _SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _exact_quotient(d, k: int) -> HurwitzQuaternion | None:
    """The Hurwitz integer with doubled coordinates d/k, or None.

    d/k is one exactly when k divides all four entries of d and the
    four quotients share one parity.
    """
    d0, d1, d2, d3 = d
    if d0 % k or d1 % k or d2 % k or d3 % k:
        return None
    q0, q1, q2, q3 = d0 // k, d1 // k, d2 // k, d3 // k
    if (q0 ^ q1) & 1 or (q0 ^ q2) & 1 or (q0 ^ q3) & 1:
        return None
    return HurwitzQuaternion._raw((q0, q1, q2, q3))


def cofactor(
    a: HurwitzQuaternion, d: HurwitzQuaternion, side: str
) -> HurwitzQuaternion | None:
    """The exact Hurwitz cofactor of d in a, or None.

    side "left" asks for m with a == d * m, side "right" for m with
    a == m * d.  Divisibility is decided without search: a = d*m forces
    conjugate(d)*a = norm(d)*m, so every doubled coordinate of that
    product must be divisible by norm(d) with consistent parity.

    Raises:
        DivisionByZero: when d is zero.
        ValueError: unless side is "left" or "right".
    """
    _check_side(side)
    n = d.norm()
    if n == 0:
        raise DivisionByZero("divisibility by zero is undefined")
    if side == "left":
        prod = _kernel.qmul(_kernel.qconj(d.doubled), a.doubled)
    else:
        prod = _kernel.qmul(a.doubled, _kernel.qconj(d.doubled))
    return _exact_quotient(prod, n)


def is_associate(u: HurwitzQuaternion, v: HurwitzQuaternion, side: str) -> bool:
    """Whether u equals a unit times v ("left") or v times a unit ("right").

    Decided by one exact division, not a search over the 24 units: with
    equal norms the exact quotient of u by v has norm 1, so it is a unit
    exactly when it is a Hurwitz integer, which `cofactor` decides.  Zero
    is an associate of zero only.

    Raises:
        ValueError: unless side is "left" or "right".
    """
    _check_side(side)
    if u.norm() != v.norm():
        return False
    if v.is_zero:
        return True
    return cofactor(u, v, "right" if side == "left" else "left") is not None


def associates(u: HurwitzQuaternion, side: str) -> Iterator[HurwitzQuaternion]:
    """All 24 products of u with a unit on the named side.

    Raises:
        ValueError: at the first item, unless side is "left" or "right".
    """
    _check_side(side)
    ud = u.doubled
    for e in UNITS:
        if side == "left":
            yield HurwitzQuaternion._raw(_kernel.qmul(e.doubled, ud))
        else:
            yield HurwitzQuaternion._raw(_kernel.qmul(ud, e.doubled))


def canonical_associate(
    u: HurwitzQuaternion, side: str
) -> tuple[HurwitzQuaternion, HurwitzQuaternion]:
    """The lexicographically smallest associate of u on the named side.

    Returns (canonical, unit) with canonical == unit * u for side
    "left" and canonical == u * unit for side "right".

    The first coordinate decides most of the minimum, and it needs no
    search: Re(e*u) = Re(u*e), which in doubled coordinates is
    -(e . w) / 2 with w = (-u0, u1, u2, u3) on both sides.  An axis unit
    (doubled entry +-2) reaches at most 2*max|w_i|, a half-odd unit
    (entries +-1) at most sum|w_i|.  So the smallest doubled real part
    is -max(2*max|w_i|, sum|w_i|) / 2, and the units that reach it can be
    written down: 2*sign(w_i) on each axis where |w_i| is largest, when
    2*max >= sum, and the half-odd units with e_i = sign(w_i), either
    sign where w_i = 0, when 2*max <= sum.  Only those are multiplied
    out; for most u there is one.  For nonzero u the 24 associates are
    distinct, so the smallest, and its unit, are unique.  Zero keeps
    the first unit, UNITS[0].

    Raises:
        ValueError: unless side is "left" or "right".
    """
    _check_side(side)
    canon, unit = _canonical(u.doubled, side == "left")
    return HurwitzQuaternion._raw(canon), HurwitzQuaternion._raw(unit)


# Doubled units by the sign of a coordinate of w: the half-odd entries
# +-1, and per axis the unit -2 or +2 there.
_HALF_SIGNS = {1: (1,), -1: (-1,), 0: (-1, 1)}
_AXIS_UNITS = tuple(
    tuple(tuple(s if j == i else 0 for j in range(4)) for s in (-2, 2))
    for i in range(4)
)


def _canonical(u, left: bool):
    """`canonical_associate` on a doubled tuple: (canonical, unit) tuples.

    left=True picks unit*u, left=False u*unit.
    """
    u0, u1, u2, u3 = u
    mags = (abs(u0), abs(u1), abs(u2), abs(u3))
    top = max(mags)
    if not top:
        return u, _UNIT_DOUBLED[0]
    w = (-u0, u1, u2, u3)
    twice, total = 2 * top, sum(mags)
    if twice > total:  # one axis unit: a second |w_i| = top makes total >= twice
        i = mags.index(top)
        e = _AXIS_UNITS[i][w[i] > 0]
    elif twice < total and 0 not in mags:  # one half-odd unit
        e = tuple([1 if c > 0 else -1 for c in w])
    else:  # 2*max = sum, or a zero coordinate: several units may tie
        units = list(product(*[_HALF_SIGNS[(c > 0) - (c < 0)] for c in w]))
        if twice == total:
            units += [_AXIS_UNITS[i][c > 0] for i, c in enumerate(w) if abs(c) == top]
        if left:
            return min((_kernel.qmul(e, u), e) for e in units)
        return min((_kernel.qmul(u, e), e) for e in units)
    return (_kernel.qmul(e, u) if left else _kernel.qmul(u, e)), e


def content(u: HurwitzQuaternion) -> int:
    """The largest positive integer m with u/m still a Hurwitz integer.

    Raises:
        ZeroInput: for the zero quaternion.
    """
    if u.is_zero:
        raise ZeroInput("the zero quaternion has no content")
    d = u.doubled
    g = gcd(*d)
    # If d/g mixes parities, g is even and d/(g/2) = 2*(d/g) is all even.
    return g if _exact_quotient(d, g) is not None else g // 2


def is_primitive(u: HurwitzQuaternion) -> bool:
    """True when no integer larger than 1 divides u."""
    return content(u) == 1


def is_primitive_mod(u: HurwitzQuaternion, m: int) -> bool:
    """Whether gcd(a, b, c, d, m) = 1 for the coordinates of u = a+bi+cj+dk.

    Raises:
        NotLipschitz: for half-odd u.
        PreconditionViolated: for m < 1.
    """
    if m < 1:
        raise PreconditionViolated(f"modulus must be positive, got {_shown(m)}")
    a, b, c, d = u.coords
    return gcd(a, b, c, d, m) == 1


class GaussianInteger:
    """An element a + bi of Z[i], with exact ring operations."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianInteger is immutable")

    def conjugate(self) -> "GaussianInteger":
        return GaussianInteger(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_unit(self) -> bool:
        return self.norm() == 1

    def __add__(self, other: "GaussianInteger") -> "GaussianInteger":
        if not isinstance(other, GaussianInteger):
            return NotImplemented
        return GaussianInteger(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInteger") -> "GaussianInteger":
        if not isinstance(other, GaussianInteger):
            return NotImplemented
        return GaussianInteger(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianInteger":
        return GaussianInteger(-self.re, -self.im)

    def __mul__(self, other: "GaussianInteger") -> "GaussianInteger":
        if not isinstance(other, GaussianInteger):
            return NotImplemented
        return GaussianInteger(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussianInteger)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianInteger({self.re}, {self.im})"

    def __str__(self) -> str:
        return str(HurwitzQuaternion.from_coords(self.re, self.im, 0, 0))


def embed_gaussian_pair(z: GaussianInteger, w: GaussianInteger) -> HurwitzQuaternion:
    """The Lipschitz quaternion z + w*j under the i-for-i embedding."""
    return HurwitzQuaternion.from_coords(z.re, z.im, w.re, w.im)
