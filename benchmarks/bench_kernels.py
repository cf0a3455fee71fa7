"""Benchmark the compiled kernel against the pure-Python fallback.

Runs the hot kernels on identical seeded workloads through both
backends and prints a timing table.  The compiled extension guards
against overflow and hands oversized inputs back to the pure code, so
an extra column reports the delegating large-coordinate variant of the
multiply workload.

Usage:
    python3 benchmarks/bench_kernels.py [--seed N] [--size N] [--repeat N]
"""

import argparse
import random
import sys
import time

from quatlat._kernel import pure

try:
    from quatlat._kernel import _speedups as compiled
except ImportError:
    compiled = None


def _doubled(rng: random.Random, span: int) -> tuple[int, int, int, int]:
    if rng.randint(0, 1):
        return tuple(2 * rng.randint(-span, span) + 1 for _ in range(4))
    return tuple(2 * rng.randint(-span, span) for _ in range(4))


def _nonzero(rng: random.Random, span: int) -> tuple[int, int, int, int]:
    while True:
        u = _doubled(rng, span)
        if any(u):
            return u


def _time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_workloads(seed: int, size: int):
    rng = random.Random(seed)
    pairs = [(_doubled(rng, 40), _nonzero(rng, 40)) for _ in range(size)]
    big_pairs = [
        (_doubled(rng, 2**40), _nonzero(rng, 2**40)) for _ in range(size)
    ]
    triples = [
        (_doubled(rng, 40), _doubled(rng, 40), _doubled(rng, 40))
        for _ in range(size)
    ]
    reps15 = pure.norm_representations(15, False)

    def mul(kernel):
        return lambda: [kernel.qmul(a, b) for a, b in pairs]

    def mul_big(kernel):
        return lambda: [kernel.qmul(a, b) for a, b in big_pairs]

    def divmod_(kernel):
        return lambda: [kernel.qdivmod(a, b, True) for a, b in pairs]

    def gcd(kernel):
        return lambda: [kernel.qgcd(a, b, True) for a, b in pairs]

    def cross(kernel):
        return lambda: [kernel.cross4(u, v, w) for u, v, w in triples]

    def sphere(kernel):
        # The compiled triple loop against the pure bucketed walk, which
        # the library uses on every backend.
        return lambda: kernel.norm_representations(225, True)

    def census(kernel):
        return lambda: kernel.count_nontrivial_gcd_pairs(reps15, 15)

    def box(kernel):
        # Walk against walk: the library's census certifies this basis
        # and only counts, on the pure kernel whichever backend is active.
        alpha = (1, 2, 3, 4)
        basis = ((2, -1, 0, 0), (3, 0, -1, 0), (4, 0, 0, -1))
        if kernel is pure:
            walk = pure._walk_orthogonality_failures
        else:
            walk = kernel.count_orthogonality_failures
        return lambda: walk(alpha, basis, 12)

    return [
        (f"qmul x{size}", mul),
        (f"qmul x{size} (big coords)", mul_big),
        (f"qdivmod x{size}", divmod_),
        (f"qgcd x{size}", gcd),
        (f"cross4 x{size}", cross),
        ("norm sphere n=225", sphere),
        ("gcd pair census n=15", census),
        ("orthogonality box 12", box),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--size", type=int, default=20000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    workloads = build_workloads(args.seed, args.size)
    name_width = max(len(name) for name, _ in workloads)

    if compiled is None:
        print("compiled kernel not built; timing the pure backend only")
        for name, make in workloads:
            secs = _time(make(pure), args.repeat)
            print(f"{name.ljust(name_width)}  pure {secs * 1000:9.2f} ms")
        return 0

    header = f"{'workload'.ljust(name_width)}  {'pure':>12}  {'compiled':>12}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, make in workloads:
        pure_fn = make(pure)
        comp_fn = make(compiled)
        if pure_fn() != comp_fn():
            print(f"{name}: backends disagree, not timing", file=sys.stderr)
            return 1
        pure_s = _time(pure_fn, args.repeat)
        comp_s = _time(comp_fn, args.repeat)
        ratio = pure_s / comp_s if comp_s > 0 else float("inf")
        print(
            f"{name.ljust(name_width)}  {pure_s * 1000:9.2f} ms  "
            f"{comp_s * 1000:9.2f} ms  {ratio:7.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
