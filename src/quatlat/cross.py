"""Generalized cross products and their exact norm identities.

In n-space the cross product of n-1 integer vectors is the formal
cofactor expansion along a final row of basis vectors, so it is the
unique vector whose inner product with any v equals the determinant of
the n-1 vectors stacked over v.  Sign convention in 4-space, reading
axes as (1, i, j, k): cross of (1, i, j) is k and cross of (i, j, k)
is -1.

For Hurwitz quaternion arguments the product is computed on doubled
coordinates and divided back by 8; with three integer-coordinate
(Lipschitz) inputs the result is again Lipschitz, while half-odd
inputs may land outside the order, in which case a RationalQuaternion
carrying the exact denominator is returned instead.
"""

from __future__ import annotations

from math import gcd

from quatlat import _kernel
from quatlat.core import HurwitzQuaternion, _exact_quotient
from quatlat.errors import DimensionMismatch, NotLipschitz, _shown

__all__ = [
    "RationalQuaternion",
    "cross_general",
    "cross3",
    "triple_scalar",
    "gram_norm",
    "expanded_norm",
    "det_int",
]

def det_int(matrix) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free (Bareiss) elimination: every division is exact, and
    each entry stays a minor of the input, so growth is polynomial.  A
    zero pivot is swapped with a lower row, flipping the sign.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[-1][-1]


def _as_int_vector(v, length: int | None = None):
    if isinstance(v, HurwitzQuaternion):
        vec = v.coords  # raises NotLipschitz for half-odd elements
    else:
        vec = tuple(v)
        if not all(isinstance(x, int) for x in vec):
            raise DimensionMismatch("vector entries must be ints")
    if length is not None and len(vec) != length:
        raise DimensionMismatch(
            f"expected a vector of length {length}, got {len(vec)}"
        )
    return vec


def cross_general(vectors) -> tuple[int, ...]:
    """Cross product of n-1 integer vectors in n-space.

    Accepts any iterable of equal-length int sequences (Lipschitz
    quaternions are read as their coordinate 4-vectors).  The result w
    satisfies w . v = det(vectors stacked over v) for every v, hence
    w is orthogonal to every input.

    Raises:
        DimensionMismatch: unless k vectors of length k+1 are supplied.
    """
    rows = [_as_int_vector(v) for v in vectors]
    if not rows:
        raise DimensionMismatch("cross product needs at least one vector")
    n = len(rows) + 1
    if any(len(r) != n for r in rows):
        raise DimensionMismatch(
            f"{len(rows)} vectors must each have length {n}"
        )
    out = []
    for col in range(n):
        sub = [list(r[:col]) + list(r[col + 1 :]) for r in rows]
        minor = det_int(sub)
        # Cofactor sign of entry (n, col+1) in 1-based indexing.
        out.append(minor if (n + col + 1) % 2 == 0 else -minor)
    return tuple(out)


class RationalQuaternion:
    """An exact quaternion with a common denominator, in lowest terms.

    Only produced by cross3 on half-odd inputs whose product leaves the
    Hurwitz order; the denominator then divides 8.  A number rather than
    a record, like GaussianInteger: immutable and hashable, but not a
    tuple, so the CLI's JSON shows its str().
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: tuple[int, int, int, int], denominator: int):
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("RationalQuaternion is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalQuaternion)
            and self.numerators == other.numerators
            and self.denominator == other.denominator
        )

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def __repr__(self) -> str:
        return (
            f"RationalQuaternion(numerators={self.numerators!r},"
            f" denominator={self.denominator!r})"
        )

    def _hurwitz(self) -> HurwitzQuaternion | None:
        n0, n1, n2, n3 = self.numerators
        return _exact_quotient((2 * n0, 2 * n1, 2 * n2, 2 * n3), self.denominator)

    @property
    def is_hurwitz(self) -> bool:
        return self._hurwitz() is not None

    def to_hurwitz(self) -> HurwitzQuaternion:
        h = self._hurwitz()
        if h is None:
            raise NotLipschitz(f"{_shown(self)} is not a Hurwitz integer")
        return h

    def __str__(self) -> str:
        return f"({HurwitzQuaternion.from_coords(*self.numerators)})/{self.denominator}"


def cross3(
    u: HurwitzQuaternion, v: HurwitzQuaternion, w: HurwitzQuaternion
):
    """Cross product of three Hurwitz quaternions.

    Computed on doubled coordinates and divided back by 8 exactly.
    Lipschitz inputs always yield a Lipschitz HurwitzQuaternion; a
    half-odd triple whose exact product is not a Hurwitz integer comes
    back as a RationalQuaternion instead.

    For all quaternions it is the triple cross product on H (Brown and
    Gray, "Vector cross products", 1967):
    cross3(a, b, c) = (a.b)c + (b.c)a - (a.c)b - a*conj(b)*c.  Both sides
    are trilinear over Z, so the 4^3 = 64 basis triples prove it.  So for
    beta, gamma perpendicular to alpha (Theorem 4.3), cross3(alpha, beta,
    gamma) = -alpha*Im(conj(beta)*gamma) = Im(gamma*conj(beta))*alpha, and
    (Theorem 4.4) cross3(alpha*beta, alpha*gamma, delta) =
    N(alpha)(beta.gamma)delta + ((alpha*gamma).delta)alpha*beta
    - ((alpha*beta).delta)alpha*gamma - alpha*beta*conj(gamma)*conj(alpha)*delta,
    every term alpha times a Lipschitz integer for Lipschitz arguments.
    """
    c = _kernel.cross4(u.doubled, v.doubled, w.doubled)
    h = _exact_quotient(c, 4)
    if h is not None:
        return h
    g = gcd(*c, 8)
    return RationalQuaternion(tuple(x // g for x in c), 8 // g)


def triple_scalar(u1, u2, u3, v) -> int:
    """Determinant of four stacked 4-vectors: cross4(u1, u2, u3) . v,
    its cofactor expansion along the last row."""
    r1, r2, r3, r4 = (_as_int_vector(x, 4) for x in (u1, u2, u3, v))
    return _kernel.qdot4(_kernel.cross4(r1, r2, r3), r4)


def _dot_int(u: HurwitzQuaternion, v: HurwitzQuaternion) -> int:
    if not (u.is_lipschitz and v.is_lipschitz):
        raise NotLipschitz("integer inner products need Lipschitz arguments")
    return _kernel.qdot4(u.doubled, v.doubled) // 4


def gram_norm(
    u: HurwitzQuaternion, v: HurwitzQuaternion, w: HurwitzQuaternion
) -> int:
    """Determinant of the 3x3 Gram matrix of three Lipschitz quaternions."""
    uu, vv, ww = u.norm(), v.norm(), w.norm()
    uv, uw, vw = _dot_int(u, v), _dot_int(u, w), _dot_int(v, w)
    return det_int([[uu, uv, uw], [uv, vv, vw], [uw, vw, ww]])


def expanded_norm(
    u: HurwitzQuaternion, v: HurwitzQuaternion, w: HurwitzQuaternion
) -> int:
    """The Gram determinant multiplied out into norms and inner products.

    N(u)N(v)N(w) - N(u)(v.w)^2 - N(v)(u.w)^2 - N(w)(u.v)^2
    + 2(u.v)(u.w)(v.w); agrees with gram_norm and with the norm of
    cross3 for Lipschitz inputs.
    """
    nu, nv, nw = u.norm(), v.norm(), w.norm()
    uv, uw, vw = _dot_int(u, v), _dot_int(u, w), _dot_int(v, w)
    return (
        nu * nv * nw
        - nu * vw * vw
        - nv * uw * uw
        - nw * uv * uv
        + 2 * uv * uw * vw
    )
