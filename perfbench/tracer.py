"""Spans around the public functions of each quatlat module, with no source edits.

`Tracer.install()` replaces every module attribute that holds a traced
function with a timing wrapper: the defining module's attribute, the
re-exports in the package, and the names other modules imported, such
as `quatlat.euclid.canonical_associate` or `quatlat.factor.quaternion_gcd`.
Callers look those attributes up at call time, so each call lands in a
span. `restore()` puts the originals back.

The kernel is wrapped at its dispatch table, `quatlat._kernel`. Calls the
pure kernel makes to its own functions (the gcd loop inside the pair
census, for instance) stay untraced, as the compiled kernel's would.

A span is (name, start, end, parent, op). Self time is a span's duration
minus the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# Magnitude limits of the compiled kernel: a call with a doubled
# coordinate beyond these is handed to the pure kernel.
GUARD_DIV = 1 << 20
GUARD_MUL = 1 << 30
GUARD_BOX = 1 << 10

# (span name, module, attribute). The span name is "<layer>.<function>".
# Every kernel entry point is wrapped, reported or not, so that the kernel
# time under public gcd and the over-guard count are complete.
TRACED = (
    ("kernel.qconj", "quatlat._kernel", "qconj"),
    ("kernel.qneg", "quatlat._kernel", "qneg"),
    ("kernel.qadd", "quatlat._kernel", "qadd"),
    ("kernel.qsub", "quatlat._kernel", "qsub"),
    ("kernel.qmul", "quatlat._kernel", "qmul"),
    ("kernel.qnorm", "quatlat._kernel", "qnorm"),
    ("kernel.qdot4", "quatlat._kernel", "qdot4"),
    ("kernel.qdivmod", "quatlat._kernel", "qdivmod"),
    ("kernel.qgcd", "quatlat._kernel", "qgcd"),
    ("kernel.cross4", "quatlat._kernel", "cross4"),
    ("kernel.norm_representations", "quatlat._kernel", "norm_representations"),
    ("kernel.count_nontrivial_gcd_pairs", "quatlat._kernel", "count_nontrivial_gcd_pairs"),
    ("kernel.count_orthogonality_failures", "quatlat._kernel", "count_orthogonality_failures"),
    ("core.canonical_associate", "quatlat.core", "canonical_associate"),
    ("euclid.gcd", "quatlat.euclid", "gcd"),
    ("euclid.divide", "quatlat.euclid", "divide"),
    ("cross.cross3", "quatlat.cross", "cross3"),
    ("lattice.orthogonal_basis", "quatlat.lattice", "orthogonal_basis"),
    ("lattice.orthogonality_census", "quatlat.lattice", "orthogonality_census"),
    ("lattice.in_orthogonal_lattice", "quatlat.lattice", "in_orthogonal_lattice"),
    ("lattice.representations", "quatlat.lattice", "representations"),
    ("factor.semiprime_pair_fraction", "quatlat.factor", "semiprime_pair_fraction"),
    ("factor.semiprime_factor_attempt", "quatlat.factor", "semiprime_factor_attempt"),
    # Every four-square decomposition, public or inside the montecarlo
    # sampler, goes through this helper.
    ("factor.four_squares", "quatlat.factor", "_four_squares"),
    ("factor.miller_rabin", "quatlat.factor", "miller_rabin"),
    ("factor.rational_factorize", "quatlat.factor", "rational_factorize"),
    ("factor.factor_modelled", "quatlat.factor", "factor_modelled"),
    ("checks.run_check", "quatlat.checks", "run_check"),
    ("cli.main", "quatlat.cli", "main"),
)

# Modules whose attributes are never replaced: the kernel implementations
# themselves, so their internal calls stay untraced.
_UNTOUCHED = ("quatlat._kernel.pure", "quatlat._kernel._speedups")

# Kernel entry point -> (guard, which positional arguments are 4-tuples).
_GUARDED = {
    "kernel.qmul": (GUARD_MUL, (0, 1)),
    "kernel.qnorm": (GUARD_MUL, (0,)),
    "kernel.qdot4": (GUARD_MUL, (0, 1)),
    "kernel.qdivmod": (GUARD_DIV, (0, 1)),
    "kernel.qgcd": (GUARD_DIV, (0, 1)),
    "kernel.cross4": (GUARD_DIV, (0, 1, 2)),
}


def _over(vectors, guard) -> bool:
    return any(x < -guard or x > guard for v in vectors for x in v)


def over_guard(name, args) -> bool:
    """Whether the compiled kernel would hand this call to the pure one."""
    if name in _GUARDED:
        guard, slots = _GUARDED[name]
        return _over([args[i] for i in slots], guard)
    if name == "kernel.count_nontrivial_gcd_pairs":
        return args[1] > GUARD_MUL
    if name == "kernel.count_orthogonality_failures":
        alpha, basis, bound = args
        return bound > GUARD_BOX or _over([alpha, *basis], GUARD_BOX)
    if name == "kernel.norm_representations":
        return args[0] > 1 << 40
    return False


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.child_time: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans = self.spans
        child_time = self.child_time
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        is_kernel = name.startswith("kernel.")

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            child_time.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
                if parent >= 0:
                    child_time[parent] += end - start
            if is_kernel:
                if over_guard(name, args):
                    counters["kernel.over_guard_calls"] += 1
                if name == "kernel.count_nontrivial_gcd_pairs":
                    k = len(args[0])
                    counters["kernel.census_pair_gcds"] += k * (k - 1)
                elif name == "kernel.count_orthogonality_failures":
                    counters["kernel.box_points"] += result[0]
            elif name == "factor.semiprime_factor_attempt":
                counters["factor.montecarlo.successes"] += result.successes_either
                counters["factor.montecarlo.trials"] += result.trials
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            mod
            for modname, mod in list(sys.modules.items())
            if mod is not None
            and (modname == "quatlat" or modname.startswith("quatlat."))
            and modname not in _UNTOUCHED
        ]
        for name, modname, attr in TRACED:
            if modname not in sys.modules:
                continue  # never imported, so never called
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self) -> dict:
        """Per-name calls and self time, plus the derived Euclid figures."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        under_gcd = [False] * len(self.spans)
        gcd_time = kernel_under_gcd = 0.0
        steps = 0
        for idx, (name, start, end, parent, _op) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - self.child_time[idx]
            if parent >= 0:
                parent_name = self.spans[parent][0]
                under_gcd[idx] = parent_name == "euclid.gcd" or under_gcd[parent]
                if name == "kernel.qdivmod" and parent_name == "euclid.gcd":
                    steps += 1
            if name == "euclid.gcd":
                gcd_time += dur
            elif under_gcd[idx] and name.startswith("kernel."):
                kernel_under_gcd += dur
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "euclid.gcd.steps": steps,
            "euclid.gcd.kernel_ratio": (
                gcd_time / kernel_under_gcd if kernel_under_gcd else 0.0
            ),
            "counters": dict(self.counters),
        }

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
