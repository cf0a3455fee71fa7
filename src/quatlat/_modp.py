"""The Hurwitz order modulo an odd prime p as the matrix ring M_2(F_p).

A primitive element whose norm p divides maps to a matrix of rank 1,
and its right and left divisor classes of norm p are the matrix's row
and column lines, points of P^1(F_p).  The census and the monte-carlo
attempt of `quatlat.factor` read divisor classes this way, with no gcd.
"""

from __future__ import annotations


def _minus_one_as_two_squares(p: int) -> tuple[int, int]:
    # (x, y) with x^2 + y^2 = -1 mod the odd prime p, which the callers
    # have proven prime.  For p % 4 == 1, x = z^((p-1)/4) for the first
    # non-residue z, and y = 0.  Otherwise x is the first for which
    # t = -1 - x^2 is a square, and y = t^((p+1)/4), exact as p % 4 == 3.
    # Both searches run Euler's criterion, and about every other value
    # passes.  The pair only has to exist: line keys are compared with
    # each other, never with keys from another (x, y).
    if p % 4 == 1:
        z = 2
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        return pow(z, (p - 1) // 4, p), 0
    x = 1
    while pow(-1 - x * x, (p - 1) // 2, p) != 1:
        x += 1
    return x, pow(-1 - x * x, (p + 1) // 4, p)


def _matrix_mod_p(u: tuple, p: int, x: int, y: int) -> tuple[int, int, int, int]:
    # The doubled tuple u as the 2x2 matrix (m00, m01, m10, m11) mod p,
    # under i -> [[0, -1], [1, 0]], j -> [[x, y], [y, -x]] and
    # k -> ij = [[-y, x], [x, y]], with x^2 + y^2 = -1 mod p.  For odd p
    # this maps the Hurwitz order mod p onto M_2(F_p), and the norm to
    # the determinant (times 4, for doubled coordinates).
    a, b, c, d = u
    s = c * x - d * y
    t = c * y + d * x
    return (a + s) % p, (t - b) % p, (t + b) % p, (a - s) % p


def _line_keys(p: int, elements) -> tuple[list[int], list[int]]:
    # The right and left divisor classes of norm p of primitive doubled
    # tuples whose norm p divides, as points of P^1(F_p).  Each matrix
    # has rank 1; the right divisor is read from the row line (the first
    # nonzero row) and the left one from the column line (the first
    # nonzero column).  A line (u : v) is keyed v/u, or p when u = 0.
    # Each inverse mod p is computed on first use and cached for the
    # rest of the batch.
    x, y = _minus_one_as_two_squares(p)
    inv: dict[int, int] = {}
    right: list[int] = []
    left: list[int] = []
    for m00, m01, m10, m11 in [_matrix_mod_p(t, p, x, y) for t in elements]:
        u, v = (m00, m01) if m00 or m01 else (m10, m11)
        right.append(
            v * (inv.get(u) or inv.setdefault(u, pow(u, -1, p))) % p if u else p
        )
        u, v = (m00, m10) if m00 or m10 else (m01, m11)
        left.append(
            v * (inv.get(u) or inv.setdefault(u, pow(u, -1, p))) % p if u else p
        )
    return right, left
