"""Record the reference outputs the benchmark checks against.

Run from the repository root, on a commit whose outputs are known good:

    python3 perfbench/record.py

It rewrites perfbench/reference.json with the census counts and sphere
digests, the box-12 orthogonal counts for every primitive alpha of the
lattice box up to signed permutation, and the exit code and stdout digest
of every CLI argv in the pool. The criterion-8 mismatch is recorded as it
stands: it is the expected output.
"""

import itertools
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
os.environ.pop("QUATLAT_ENUM_BOUND", None)

import quatlat  # noqa: E402
import quatlat.cli  # noqa: E402

import workloads as wl  # noqa: E402


def census():
    fraction = {}
    for p, q in wl.SEMIPRIMES:
        entry = {}
        for convention in wl.CONVENTIONS:
            rep = quatlat.semiprime_pair_fraction(p, q, convention)
            entry[convention] = rep.nontrivial_pairs
            entry["total"] = rep.total_pairs
            entry[f"fraction_{convention}"] = str(rep.fraction)
            entry[f"matches_{convention}"] = rep.matches_prediction
        fraction[str(p * q)] = entry
    spheres = {str(n): wl.reps_digest(quatlat.representations(n)) for n in wl.sphere_norms()}
    return {"fraction": fraction, "spheres": spheres}


def lattice():
    box = {}
    span = range(wl.DENSE_SPAN + 1)
    for key in itertools.combinations_with_replacement(span, 4):
        if not wl.is_primitive(key):
            continue
        count, failures = quatlat.orthogonality_census(
            quatlat.HurwitzQuaternion.from_coords(*key), wl.BOX
        )
        if failures:
            raise SystemExit(f"basis of {key} fails on {failures} box points")
        box[wl.box_key(key)] = count
    return {"box12": box}


def cli():
    outputs = {}
    for argvs in wl.cli_pool().values():
        for argv in argvs:
            code, text = wl.run_cli(quatlat, argv)
            if code != 0:
                raise SystemExit(f"{wl.argv_key(argv)} exited {code}: {text}")
            outputs[wl.argv_key(argv)] = [code, wl.digest(text)]
    return outputs


def main():
    reference = {
        "recorded_with": {
            "backend": quatlat.kernel_backend(),
            "python": sys.version.split()[0],
        },
        "census": census(),
        "lattice": lattice(),
        "cli": cli(),
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
