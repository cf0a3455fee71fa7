"""Run one workload of the quatlat benchmark and print its metrics.

    python3 perfbench/run.py --workload arith --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the package in place, imports
quatlat from ./src, makes the workload's inputs from --seed, and drives
them from one closed-loop caller in this process and thread. It repeats
the workload's round of ops until --seconds have passed, checking every
result. With --trace 0 it reports the end-to-end metrics; with --trace 1
it then runs the round twice more under the tracer and reports the
per-layer metrics. The last line of output is one JSON object. See
perfbench/README.md for the workloads, the metrics and what each later
change is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_RUNS = 7
# Samples per round that lie beyond the tail percentile. Fixing it per
# round fixes the percentile, so a faster program that fits more rounds
# into a run is compared at the same percentile.
TAIL_BEYOND = 10

# The first public call each workload makes, timed with the import.
FIRST_CALL = {
    "arith": (
        "quatlat.gcd(quatlat.HurwitzQuaternion.from_coords(-1, 3, 1, -2),"
        " quatlat.HurwitzQuaternion.from_integer(15), 'right')"
    ),
    "census": "quatlat.representations(15)",
    "lattice": "quatlat.orthogonal_basis(quatlat.HurwitzQuaternion.from_coords(1, 2, 3, 4))",
    "cli": (
        "import contextlib, io, quatlat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    quatlat.cli.main(['norm', '-1+3i+j-2k', '--json'])"
    ),
}

# (name, unit, better) of every metric, in output order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
_CALLS_AND_SELF = (
    "kernel.qdivmod", "kernel.qmul", "kernel.qgcd",
    "core.canonical_associate", "euclid.gcd", "euclid.divide", "cross.cross3",
    "factor.four_squares", "factor.miller_rabin", "cli.main",
)
_SELF_ONLY = (
    "kernel.count_nontrivial_gcd_pairs", "kernel.norm_representations",
    "kernel.count_orthogonality_failures",
    "lattice.orthogonal_basis", "lattice.orthogonality_census",
    "lattice.in_orthogonal_lattice", "lattice.representations",
    "factor.semiprime_pair_fraction", "factor.semiprime_factor_attempt",
    "factor.rational_factorize", "factor.factor_modelled", "checks.run_check",
)
# Counts that must repeat exactly on the same inputs.
EXACT = (
    ("kernel.census_pair_gcds", "count", "lower"),
    ("kernel.box_points", "count", "higher"),
    ("kernel.over_guard_calls", "count", "lower"),
    ("euclid.gcd.steps", "count", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
)
PER_LAYER = (
    tuple((f"{name}.calls", "count", "lower") for name in _CALLS_AND_SELF)
    + tuple((f"{name}.self_s", "s", "lower") for name in _CALLS_AND_SELF + _SELF_ONLY)
    + EXACT
    + (
        ("euclid.gcd.kernel_ratio", "ratio", "lower"),
        ("factor.montecarlo.success_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build() -> str:
    """Build the package in place, which compiles any extension setup.py declares."""
    if not (ROOT / "setup.py").is_file():
        return "no setup.py"
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode:
        print(proc.stderr[-2000:], file=sys.stderr)
        return f"build_ext failed with code {proc.returncode}"
    return "build_ext ok"


def import_quatlat():
    sys.path.insert(0, str(SRC))
    try:
        import quatlat
    except ImportError as exc:
        fail(f"cannot import quatlat from {SRC}: {exc}")
    if not Path(quatlat.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"quatlat was imported from {quatlat.__file__}, not from {SRC}")
    return quatlat


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Import plus first call, timed inside fresh interpreters.

    Returns the raw times and the times at the reference speed, from a
    speed sample taken in the same interpreter before and after.
    """
    code = (
        "import time, calibrate\n"
        "before = calibrate.sample()\n"
        "t0 = time.perf_counter()\n"
        "import quatlat\n"
        f"{FIRST_CALL[workload]}\n"
        "elapsed = time.perf_counter() - t0\n"
        "print(elapsed, before, calibrate.sample())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode:
            fail(f"set-up interpreter failed:\n{proc.stderr}")
        elapsed, before, after = map(float, proc.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed * calibrate.REFERENCE_S / ((before + after) / 2))
    return raw, scaled


def kernel_gate(quatlat, workload) -> str:
    """The active kernel must agree with the pure one on the workload's kernel inputs."""
    if quatlat.kernel_backend() == "pure":
        return "pure backend active; nothing to compare"
    from quatlat import _kernel
    from quatlat._kernel import pure

    for fn, args in workload.kernel_cases:
        if getattr(pure, fn)(*args) != getattr(_kernel, fn)(*args):
            print(f"perfbench: kernels disagree on {fn}{args!r}", file=sys.stderr)
            sys.exit(1)
    return f"pure and {quatlat.kernel_backend()} agree on {len(workload.kernel_cases)} kernel calls"


class Errors:
    def __init__(self):
        self.failed = 0
        self.shown = 0

    def record(self, kind: str, what: str) -> None:
        self.failed += 1
        if self.shown < 5:
            self.shown += 1
            print(f"perfbench: {kind} op failed: {what}", file=sys.stderr)


def run_op(op, errors: Errors):
    """Call one op, then check its result outside the timed span.

    Returns (start, end, result); result is None when the call raised.
    """
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:
        end = time.perf_counter()
        errors.record(op.kind, f"raised {type(exc).__name__}: {exc}")
        return start, end, None
    end = time.perf_counter()
    try:
        ok = op.check(result)
    except Exception as exc:
        ok = False
        errors.record(op.kind, f"check raised {type(exc).__name__}: {exc}")
    else:
        if not ok:
            errors.record(op.kind, f"wrong result {result!r}"[:300])
    return start, end, result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ops, seconds: float, errors: Errors):
    """Whole rounds until `seconds` have passed.

    Returns each op's raw latency and its latency at the reference speed,
    the number of rounds, the wall time, and the peak RSS after the first
    round. Every round repeats the same calls, so the program reaches its
    peak in the first one; later growth is this runner's own record of
    latencies, which grows with the number of ops run.
    """
    spans = []
    rounds = 0
    start = time.perf_counter()
    with calibrate.Speedometer() as speed:
        while rounds == 0 or time.perf_counter() - start < seconds:
            for op in ops:
                spans.append(run_op(op, errors)[:2])
            rounds += 1
            if rounds == 1:
                rss = peak_rss_mb()
    raw, scaled = zip(*(speed.op_time(*span) for span in spans))
    return list(raw), list(scaled), rounds, time.perf_counter() - start, rss


def end_to_end(latencies, rounds, setup, rss) -> dict:
    ordered = sorted(latencies)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * ordered[len(ordered) - 1 - TAIL_BEYOND * rounds],
        "peak_rss_mb": rss,
    }


def traced_pass(ops, workload_name: str, errors: Errors):
    """One round under the tracer: per-layer values, busy time at the reference speed, tracer."""
    tracer = Tracer()
    output_bytes = 0
    spans = []
    with calibrate.Speedometer() as speed, tracer:
        for idx, op in enumerate(ops):
            tracer.op = idx
            start, end, result = run_op(op, errors)
            spans.append((start, end))
            if workload_name == "cli" and result is not None:
                output_bytes += len(result[1].encode())
    busy = sum(speed.op_time(*span)[1] for span in spans)
    summary = tracer.summary()
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    trials = counters.get("factor.montecarlo.trials", 0)
    values = {}
    for span in _CALLS_AND_SELF:
        values[f"{span}.calls"] = calls.get(span, 0)
    for span in _CALLS_AND_SELF + _SELF_ONLY:
        values[f"{span}.self_s"] = self_s.get(span, 0.0)
    values.update({
        "kernel.census_pair_gcds": counters.get("kernel.census_pair_gcds", 0),
        "kernel.box_points": counters.get("kernel.box_points", 0),
        "kernel.over_guard_calls": counters.get("kernel.over_guard_calls", 0),
        "euclid.gcd.steps": summary["euclid.gcd.steps"],
        "cli.output_bytes": output_bytes,
        "euclid.gcd.kernel_ratio": summary["euclid.gcd.kernel_ratio"],
        "factor.montecarlo.success_ratio": (
            counters.get("factor.montecarlo.successes", 0) / trials if trials else 0.0
        ),
    })
    return values, busy, tracer


def exact_counts(values: dict) -> dict:
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: v for k, v in values.items() if units.get(k) in ("count", "bytes")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Recorded outputs assume the default enumeration bound.
    os.environ.pop("QUATLAT_ENUM_BOUND", None)
    reference_path = HERE / "reference.json"
    if not reference_path.is_file():
        fail(f"missing {reference_path}")
    built = build()
    quatlat = import_quatlat()
    reference = json.loads(reference_path.read_text())
    setup = setup_seconds(args.workload)
    workload = workloads.WORKLOADS[args.workload](quatlat, args.seed, reference)
    gate = kernel_gate(quatlat, workload)

    print(
        f"quatlat benchmark  workload={workload.name} seed={args.seed} "
        f"backend={quatlat.kernel_backend()} python={sys.version.split()[0]} "
        f"nproc={os.cpu_count()} callers=1 (closed loop, one thread)"
    )
    print(f"  build: {built}; kernel gate: {gate}")
    print(f"  inputs: {workload.sizes}")

    errors = Errors()
    raw, scaled, rounds, wall, rss = measure(workload.ops, args.seconds, errors)
    attempted = len(raw)
    per_round = len(workload.ops)
    print(f"  measured {rounds} rounds of {per_round} ops in {wall:.2f} s")
    correct = True

    if not args.trace:
        values = end_to_end(scaled, rounds, setup[1], rss)
        raw_values = end_to_end(raw, rounds, setup[0], rss)
        tail_pct = 100.0 * (1 - TAIL_BEYOND / per_round)
        notes = {
            "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
            "ops_per_s": f"{attempted} ops",
            "op_p50_ms": f"{attempted} samples",
            "op_tail_ms": (
                f"p{tail_pct:.2f}: {TAIL_BEYOND * rounds} of {attempted} samples "
                f"beyond it ({TAIL_BEYOND} in each round of {per_round})"
            ),
            "peak_rss_mb": "ru_maxrss of this process after the first round",
        }
        print("  times are at the reference speed; the raw wall-clock figure follows")
        for name, unit, _ in END_TO_END:
            print(
                f"  {name:<12} {values[name]:>12.4f} {unit:<4} "
                f"(raw {raw_values[name]:.4f})  {notes[name]}"
            )
        print(
            f"  {'error_rate':<12} {errors.failed / attempted:>12.4f} "
            f"{'':<4} {errors.failed} of {attempted} ops raised or failed their check"
        )
        by_kind = defaultdict(list)
        for idx, elapsed in enumerate(scaled):
            by_kind[workload.ops[idx % per_round].kind].append(elapsed)
        for kind, times in sorted(by_kind.items()):
            print(f"    {kind:<24} {len(times):>6} ops  p50 {1000 * statistics.median(times):10.3f} ms")
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END
        }
    else:
        plain = sum(scaled) / rounds
        first, busy, tracer = traced_pass(workload.ops, workload.name, errors)
        second, busy2, _ = traced_pass(workload.ops, workload.name, errors)
        attempted += 2 * len(workload.ops)
        first["trace.overhead_ratio"] = (busy + busy2) / 2 / plain
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        print(f"  traced the round twice; {len(tracer.spans)} spans per pass in {spans_path.relative_to(ROOT)}")
        counts_first, counts_second = exact_counts(first), exact_counts(second)
        for name in counts_first:
            if counts_first[name] != counts_second[name]:
                correct = False
                print(
                    f"perfbench: exact count {name} differs between two traced passes: "
                    f"{counts_first[name]} != {counts_second[name]}", file=sys.stderr,
                )
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<44} {first[name]:>14.6g} {unit}")
        metrics = {name: {"value": first[name], "unit": unit} for name, unit, _ in PER_LAYER}

    correct = correct and errors.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": errors.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
