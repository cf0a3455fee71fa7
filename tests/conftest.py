"""Shared helpers for the quatlat test suite.

Every randomized sweep seeds its own random.Random so failures
reproduce exactly; nothing here touches global random state.
"""

import random

import pytest

from quatlat import HurwitzQuaternion, is_primitive


@pytest.fixture
def no_primality_proof(monkeypatch):
    """Fail the test on any call to the primality test, under either name."""

    def refuse(n):
        raise AssertionError("a primality proof ran")

    for module in ("quatlat.factor", "quatlat.rational"):
        monkeypatch.setattr(f"{module}.miller_rabin", refuse)


def random_lipschitz(rng: random.Random, span: int) -> HurwitzQuaternion:
    """A Lipschitz quaternion with coordinates in [-span, span]."""
    return HurwitzQuaternion(*(2 * rng.randint(-span, span) for _ in range(4)))


def random_half_odd(rng: random.Random, span: int) -> HurwitzQuaternion:
    """A Hurwitz quaternion with all four coordinates half-odd."""
    return HurwitzQuaternion(*(2 * rng.randint(-span, span - 1) + 1 for _ in range(4)))


def random_hurwitz(rng: random.Random, span: int) -> HurwitzQuaternion:
    """Either parity class, chosen by a fair coin."""
    if rng.randint(0, 1):
        return random_half_odd(rng, span)
    return random_lipschitz(rng, span)


def random_nonzero(rng: random.Random, span: int, hurwitz: bool = False) -> HurwitzQuaternion:
    while True:
        u = random_hurwitz(rng, span) if hurwitz else random_lipschitz(rng, span)
        if not u.is_zero:
            return u


def random_primitive(rng: random.Random, span: int) -> HurwitzQuaternion:
    """A primitive Lipschitz quaternion (coordinate gcd 1)."""
    while True:
        u = random_lipschitz(rng, span)
        if not u.is_zero and is_primitive(u):
            return u
