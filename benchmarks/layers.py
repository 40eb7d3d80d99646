"""Time entwedge's layers in-process, best of N, with fixed seeds.

The six cases are calls whose time is the split-residual kernel and the
invariance trials: a separability report on eight qubits, E on (8,8,8),
C on (64,64), and invariance runs of 100 trials on (3,3) and on eight
qubits and of 2000 trials on (2,2).  Each case's state is drawn from
``SEED`` and the invariance runs use ``SEED`` as their seed, so every
round times the same work.  A case's time is the smallest wall-clock
time of one call over N rounds.  The JSON written records the machine,
the Python and numpy builds, the BLAS numpy links, the BLAS thread
setting, the seed and N, next to each case's best and every round.

Run from a checkout, on one BLAS thread so that runs compare:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/layers.py --out BENCH.json
    python benchmarks/layers.py --compare BENCH_before.json BENCH_after.json

``--compare`` prints each case's relative change and exits 0: it reports,
it is not a gate.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import sys
import time

import numpy as np

SEED = 1

# name -> (the entwedge function to time, its keyword arguments, the dims
# of the state it is timed on)
CASES = {
    "separability_report-2^8": ("separability_report", {}, (2,) * 8),
    "E-8x8x8": ("multipartite_measure", {}, (8, 8, 8)),
    "C-64x64": ("bipartite_concurrence", {}, (64, 64)),
    "invariance-100-3x3": ("invariance_experiment", {"trials": 100, "seed": SEED}, (3, 3)),
    "invariance-100-2^8": ("invariance_experiment", {"trials": 100, "seed": SEED}, (2,) * 8),
    "invariance-2000-2x2": ("invariance_experiment", {"trials": 2000, "seed": SEED}, (2, 2)),
}


def blas_config():
    """numpy's BLAS and LAPACK build entries; on numpy older than 1.26,
    which has no ``mode`` argument, the text ``show_config`` prints.
    Install directories are left out: they differ per machine and say
    nothing about the build."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_config()
        return "\n".join(line for line in text.getvalue().splitlines() if "dir" not in line)
    return {
        lib: {key: value for key, value in entry.items() if "directory" not in key}
        for lib, entry in deps.items()
    }


def cpu_model() -> str:
    """The first ``model name`` of ``/proc/cpuinfo`` where there is one."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(rounds: int) -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": blas_config(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": SEED,
        "rounds": rounds,
    }


def time_case(name: str, rounds: int) -> dict:
    # imported here so that --compare reads two files without the package
    import entwedge

    func, kwargs, dims = CASES[name]
    call = functools.partial(getattr(entwedge, func), **kwargs)
    rng = np.random.default_rng(SEED)
    size = math.prod(dims)
    vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    state = entwedge.PureState(dims, vec / np.linalg.norm(vec))
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        call(state)
        times.append(time.perf_counter() - start)
    return {"best_s": min(times), "times_s": times}


def run(names, rounds: int) -> dict:
    doc = environment(rounds)
    doc["cases"] = {name: time_case(name, rounds) for name in names}
    return doc


def compare(before: dict, after: dict) -> list:
    """One line per case in both documents: both bests in ms and the
    relative change, negative when ``after`` is faster."""
    lines = []
    for name, case in before["cases"].items():
        if name in after["cases"]:
            a, b = case["best_s"], after["cases"][name]["best_s"]
            lines.append(f"{name:24} {a * 1e3:10.3f} ms {b * 1e3:10.3f} ms {b / a - 1:+8.1%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=7, help="N, the rounds per case")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two JSON files")
    args = parser.parse_args(argv)
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as f:
                docs.append(json.load(f))
        print("\n".join(compare(*docs)))
        return 0
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    text = json.dumps(run(list(CASES), args.rounds), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
