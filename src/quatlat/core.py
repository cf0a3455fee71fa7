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
from itertools import repeat
from math import gcd
from typing import Iterator

from quatlat import _kernel
from quatlat.errors import MixedParity, NotLipschitz, ZeroInput, PreconditionViolated

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
            raise MixedParity(
                f"doubled coordinates ({d0}, {d1}, {d2}, {d3}) are neither "
                "all even nor all odd"
            )
        self._d = (d0, d1, d2, d3)

    @classmethod
    def _raw(cls, d) -> "HurwitzQuaternion":
        # Trusted constructor for values produced by the kernel, which
        # preserves parity by construction.
        self = object.__new__(cls)
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
            raise NotLipschitz(f"{self} has half-odd coordinates")
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
        result = ONE
        for _ in range(exponent):
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
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for val, axis in zip(self._d, ("", "i", "j", "k")):
            if val == 0:
                continue
            if val % 2 == 0:
                co = val // 2
                if axis and co == 1:
                    text = axis
                elif axis and co == -1:
                    text = "-" + axis
                else:
                    text = f"{co}{axis}"
            else:
                text = f"{val}/2{axis}"
            if parts and not text.startswith("-"):
                parts.append("+")
            parts.append(text)
        return "".join(parts)


ZERO = HurwitzQuaternion(0, 0, 0, 0)
ONE = HurwitzQuaternion.from_integer(1)
I = HurwitzQuaternion.from_coords(0, 1, 0, 0)
J = HurwitzQuaternion.from_coords(0, 0, 1, 0)
K = HurwitzQuaternion.from_coords(0, 0, 0, 1)
OMEGA = HurwitzQuaternion(1, 1, 1, 1)


def _build_units() -> tuple[HurwitzQuaternion, ...]:
    found = [
        HurwitzQuaternion._raw(d)
        for d in _kernel.norm_representations(1, True)
    ]
    return tuple(found)


#: The 24 invertible Hurwitz integers, sorted by doubled quadruple.
UNITS: tuple[HurwitzQuaternion, ...] = _build_units()
_UNIT_DOUBLED = tuple(e.doubled for e in UNITS)


def units() -> tuple[HurwitzQuaternion, ...]:
    """The unit group of the Hurwitz order: 8 signed axes, 16 half-odd."""
    return UNITS


def inner_product(u: HurwitzQuaternion, v: HurwitzQuaternion) -> Fraction:
    """Euclidean inner product; exact, integer-valued on Lipschitz pairs."""
    return Fraction(_kernel.qdot4(u.doubled, v.doubled), 4)


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def is_associate(u: HurwitzQuaternion, v: HurwitzQuaternion, side: str) -> bool:
    """Whether u equals a unit times v ("left") or v times a unit ("right")."""
    _check_side(side)
    if u.norm() != v.norm():
        return False
    vd = v.doubled
    if side == "left":
        return any(_kernel.qmul(e.doubled, vd) == u.doubled for e in UNITS)
    return any(_kernel.qmul(vd, e.doubled) == u.doubled for e in UNITS)


def associates(u: HurwitzQuaternion, side: str) -> Iterator[HurwitzQuaternion]:
    """All 24 products of u with a unit on the named side."""
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
    product: Re(e*u) = Re(u*e), which in doubled coordinates is
    (e0*u0 - e1*u1 - e2*u2 - e3*u3) / 2 on both sides.  So the 24 real
    parts are found as dot products, and only the units that reach
    their minimum are multiplied out.  For nonzero u the 24 associates
    are distinct, so the smallest, and its unit, are unique.
    """
    _check_side(side)
    ud = u.doubled
    u0, u1, u2, u3 = ud
    reals = [
        e0 * u0 - e1 * u1 - e2 * u2 - e3 * u3
        for e0, e1, e2, e3 in _UNIT_DOUBLED
    ]
    low = min(reals)
    best = None
    best_unit = None
    for e, ed, real in zip(UNITS, _UNIT_DOUBLED, reals):
        if real != low:
            continue
        cand = _kernel.qmul(ed, ud) if side == "left" else _kernel.qmul(ud, ed)
        if best is None or cand < best:
            best, best_unit = cand, e
    return HurwitzQuaternion._raw(best), best_unit


def content(u: HurwitzQuaternion) -> int:
    """The largest positive integer m with u/m still a Hurwitz integer.

    Raises:
        ZeroInput: for the zero quaternion.
    """
    if u.is_zero:
        raise ZeroInput("the zero quaternion has no content")
    d = u.doubled
    g = gcd(gcd(abs(d[0]), abs(d[1])), gcd(abs(d[2]), abs(d[3])))
    if g % 2:
        return g
    # Dividing by g must keep the quadruple same-parity; otherwise g/2
    # works because each d[i]/(g/2) is even.
    quot = [x // g for x in d]
    if all(x % 2 == quot[0] % 2 for x in quot):
        return g
    return g // 2


def is_primitive(u: HurwitzQuaternion) -> bool:
    """True when no integer larger than 1 divides u."""
    return content(u) == 1


def is_primitive_mod(u: HurwitzQuaternion, m: int) -> bool:
    """Whether the integer coordinates of u are coprime to m.

    Raises:
        NotLipschitz: for half-odd u.
        PreconditionViolated: for m < 1.
    """
    if m < 1:
        raise PreconditionViolated(f"modulus must be positive, got {m}")
    a, b, c, d = u.coords
    return gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)), m) == 1


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
        return GaussianInteger(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInteger") -> "GaussianInteger":
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
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            body = {1: "i", -1: "-i"}.get(self.im)
            return body if body else f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        itext = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{itext}"


def embed_gaussian_pair(z: GaussianInteger, w: GaussianInteger) -> HurwitzQuaternion:
    """The Lipschitz quaternion z + w*j under the i-for-i embedding."""
    return HurwitzQuaternion.from_coords(z.re, z.im, w.re, w.im)
