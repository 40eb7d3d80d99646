"""perfbench: the entwedge benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload analyze-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (closed loop, one client; see workloads.py for the mixes):

* ``analyze-dense``: one op is ``multipartite_measure`` (plus
  ``bipartite_concurrence`` on two subsystems) and ``separability_report``
  on one seeded state, from (2,2) through 8 qubits to (64,64) at the
  4096 measure guard.  Random, product, near-product, GHZ and W states.
* ``invariance-lu``: one op is one 100-trial ``invariance_experiment`` on
  a small state, with a fresh experiment seed per op.
* ``cli-oneshot``: one op is one ``entwedge`` process (``parse``,
  ``measure`` or ``separability`` on a ket expression or a state file).

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s``: median over 7 fresh processes of the time from process
  start to exit after importing entwedge, building the first round's
  inputs (state files included) and one untimed warm-up op;
* ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile over a
  round's ops of each op's wall latency, best of the run's rounds;
* ``ops_per_s``: a round's ops per second at those best latencies;
* ``peak_rss_mb``: peak RSS of this process, or of the largest
  ``entwedge`` child process for cli-oneshot.

In-process op times are scaled to a reference host speed (see
CALIBRATION_WINDOW); the raw figures are printed beside them.  A run repeats one fixed round
of ops (fresh experiment seeds each round for invariance-lu) for
``--seconds``.  On a shared 2-CPU host (2.1 GHz x86) that slows down
by up to 2x for seconds to minutes at a time, run-to-run spreads (IQR
over median, 10 seeds, 30 s runs) of the in-process workloads were
17-31% for raw best-of-rounds figures and 3-11% for scaled ones;
medians over all samples spread 20-28% in 20 s runs.

Ops that raise, exit non-zero, print nothing or disagree with the
reference values in reference.py count as failed; ``failed_frac`` is
printed above the result line.

With ``--trace 1`` the same ops run twice, untraced and then with spans
around entwedge's public functions (tracing.py); the result carries
per-op self times and counts per layer, ``trace.overhead_frac``, and is
marked incorrect unless both runs gave byte-identical outputs.

Bytecode is cached under ``.perfbench/`` in the repository root, as for
an installed package, and BLAS threads are capped at the CPUs this
process may use.  Nothing is written outside the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("analyze-dense", "invariance-lu", "cli-oneshot")
SETUP_PROBES = 7
START_PROBES = 5
MIN_OPS = 100
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# For in-process ops, a fixed unit of work that uses no entwedge code (a
# Python loop and small SVDs) is timed before every op.  Each op's time
# is rescaled by the unit's reference time over its median over the nine
# ops around it, so a host that runs everything slower for a while does
# not read as a slower program.  The reference is about the unit's time
# between ops on a quiet 2.1 GHz x86 core, where scaled and raw times
# agree.  Process ops (cli-oneshot) and setup_s are not rescaled: scaled
# by bare interpreter starts they spread more from run to run than raw.
CALIBRATION_LOOP = 2000
CALIBRATION_SVDS = 10
CALIBRATION_WINDOW = 4  # units on each side of an op

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="entwedge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the warm-up op and exit (times setup_s)")
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> dict:
    """Cap BLAS threads, cache bytecode in the repository, and return the
    environment for child processes.  Runs before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc():
            os.environ[var] = str(nproc())
    pycache = os.path.join(STATE_DIR, "pycache")
    sys.pycache_prefix = pycache
    sys.dont_write_bytecode = False
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = pycache
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        refname = head[5:]
        path = os.path.join(git, refname)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + refname):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def src_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def blas_record(np) -> tuple[str, object]:
    """BLAS name and the thread count it reports, where it reports one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, os.environ.get("OPENBLAS_NUM_THREADS")


def environment(ew, np, args) -> dict:
    blas, threads = blas_record(np)
    backend = getattr(ew, "active_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc(),
        "backend": backend() if callable(backend) else "absent",
        "entwedge": getattr(ew, "__version__", "unknown"),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


class LoopUnit:
    """In-process calibration unit."""

    reference_ns = 500_000

    def __init__(self):
        import numpy as np

        self.np = np
        self.matrix = np.cos(np.arange(256.0)).reshape(16, 16)

    def __call__(self) -> int:
        start = time.perf_counter_ns()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i % 7
        for _ in range(CALIBRATION_SVDS):
            self.np.linalg.svd(self.matrix, compute_uv=False)
        return time.perf_counter_ns() - start


@dataclass
class Phase:
    """What one pass over whole rounds of ops recorded; ``latencies_ns``
    holds one list per round, in op order, and ``scales`` the matching
    factors that map each time to the reference host speed."""

    latencies_ns: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.latencies_ns)

    @property
    def ops(self) -> int:
        return sum(len(r) for r in self.latencies_ns)


def run_rounds(wl, unit=None, seconds=None, rounds=None, min_ops=0, tracer=None) -> Phase:
    """Run whole rounds until ``rounds`` are done, or until ``seconds``
    have passed and at least ``min_ops`` ops ran.  Only the op call is
    timed; checking its output is not.  An op seen before must repeat
    its first checked output byte for byte.  ``unit``, when given, is
    the calibration unit timed before every op."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        ops = wl.round(phase.rounds)
        times = []
        units = []
        for op in ops:
            if unit is not None:
                units.append(unit())
            if tracer is not None:
                tracer.tag = op.label
            t0 = time.perf_counter_ns()
            try:
                result = wl.execute(op)
                problem = None
            except Exception as exc:  # an op that raises is a failed op
                result, problem = None, f"raised {exc!r}"
            elapsed = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.tag = None
            digest = b"failed"
            if problem is None:
                try:
                    digest = wl.digest(result)
                    if op.verified is None:
                        problem = wl.verify(op, result)
                        op.verified = None if problem else digest
                    elif digest != op.verified:
                        problem = "output differs from this op's first output"
                except Exception as exc:  # output the check cannot read
                    problem = f"unreadable output: {exc!r}"
            times.append(elapsed)
            phase.digests.append(digest)
            if problem:
                phase.failures.append(f"{op.label}: {problem}")
        phase.latencies_ns.append(times)
        w = CALIBRATION_WINDOW
        phase.scales.append([unit.reference_ns / statistics.median(units[max(0, i - w):i + w + 1])
                             for i in range(len(units))] if unit is not None else [1.0] * len(ops))
        if rounds is not None:
            if phase.rounds >= rounds:
                return phase
        elif time.perf_counter() - start >= seconds and phase.ops >= min_ops:
            return phase


def best_latencies(phase: Phase, scaled: bool = True) -> list:
    """Each op's latency in ns, best of the phase's rounds, at the
    reference host speed unless ``scaled`` is false."""
    rounds = phase.latencies_ns
    if scaled:
        rounds = [[t * k for t, k in zip(times, ks)] for times, ks in zip(rounds, phase.scales)]
    return [min(column) for column in zip(*rounds)]


def busy_seconds(phase: Phase) -> float:
    """Seconds one round takes at every op's best scaled latency."""
    return sum(best_latencies(phase)) / 1e9


def percentile_ms(latencies_ns, q: int) -> float:
    """q-th percentile (inclusive method) in milliseconds."""
    cuts = statistics.quantiles(latencies_ns, n=100, method="inclusive")
    return cuts[q - 1] / 1e6


def timed_child(argv, env) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    return elapsed


def setup_seconds(args, env) -> list:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    return [timed_child(argv, env) for _ in range(SETUP_PROBES)]


def start_probes(env) -> tuple[float, float]:
    """Median ms of a bare interpreter, and of ``import entwedge`` beyond it."""
    bare = [timed_child([sys.executable, "-c", "pass"], env) for _ in range(START_PROBES)]
    full = [timed_child([sys.executable, "-c", "import entwedge"], env) for _ in range(START_PROBES)]
    return statistics.median(bare) * 1e3, (statistics.median(full) - statistics.median(bare)) * 1e3


def print_metrics(metrics: dict, notes: dict):
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}{note}")


def measure(wl, args, env):
    """Untraced run: end-to-end metrics."""
    wl.warmup()
    unit = None if wl.name == "cli-oneshot" else LoopUnit()
    phase = run_rounds(wl, unit, seconds=args.seconds, min_ops=MIN_OPS)
    rss = wl.peak_rss_mb()
    problems = wl.final_checks()
    setups = setup_seconds(args, env)
    best = best_latencies(phase)
    raw = best_latencies(phase, scaled=False)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(best) / busy_seconds(phase),
        "op_p50_ms": statistics.median(best) / 1e6,
        "op_p90_ms": percentile_ms(best, 90),
        "peak_rss_mb": rss,
    }
    above = sum(1 for x in best if x / 1e6 > values["op_p90_ms"])
    sampled = f"best of {phase.rounds} rounds for each of {len(best)} ops"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{sampled}; raw {len(raw) / (sum(raw) / 1e9):.4g}",
        "op_p50_ms": f"{sampled}; raw {statistics.median(raw) / 1e6:.4g}",
        "op_p90_ms": f"{sampled}; {above} ops above; raw {percentile_ms(raw, 90):.4g}",
    }
    metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END}
    failed = len(phase.failures) + len(problems)
    attempted = phase.ops + len(problems)
    print_metrics(metrics, notes)
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g}  ({failed} of {attempted} ops)")
    return failed == 0, attempted, failed, phase.failures + problems, metrics


def trace(wl, args, env):
    """Traced run: per-layer metrics, checked byte-identical to untraced."""
    import tracing

    wl.warmup()
    interp_ms, import_ms = start_probes(env)
    problems = []
    subprocess_digests = None
    if wl.name == "cli-oneshot":
        subprocess_digests = run_rounds(wl, rounds=1).digests
        wl.in_process = True
        wl.warmup()
    unit = LoopUnit()
    base = run_rounds(wl, unit, seconds=args.seconds / 2, min_ops=1)
    setup_tracer = tracing.Tracer()
    if wl.name == "cli-oneshot":
        traced_dir = os.path.join(wl.ctx.workdir, "traced")
        os.makedirs(traced_dir)
        with setup_tracer.installed():
            again = wl.save_states(traced_dir)
        for name, (_, _, path, _, _) in again.items():
            with open(path, "rb") as fh, open(wl.inputs[name][2], "rb") as orig:
                if fh.read() != orig.read():
                    problems.append(f"traced save_state wrote a different {name}")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_rounds(wl, unit, rounds=base.rounds, tracer=tracer)
    problems += wl.final_checks()
    if traced.digests != base.digests:
        problems.append("traced outputs differ from untraced outputs")
    if subprocess_digests is not None and subprocess_digests != base.digests[:len(subprocess_digests)]:
        problems.append("in-process CLI output differs from the CLI process output")
    ops = traced.ops
    values, absent = tracing.layer_values(tracer, ops, setup_tracer)
    values["cli.interp_start_ms"] = interp_ms
    values["cli.import_ms"] = import_ms
    values["trace.overhead_frac"] = busy_seconds(traced) / busy_seconds(base) - 1.0
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in tracing.LAYER_METRICS}
    print(f"  per op over {ops} traced ops ({traced.rounds} rounds); absent: {', '.join(absent) or 'none'}")
    print_metrics(metrics, {})
    for line in baseline_lines(tracer):
        print("  baseline " + line)
    failures = base.failures + traced.failures + problems
    attempted = base.ops + ops
    failed = len(base.failures) + len(traced.failures)
    return not failures, attempted, failed, failures, metrics


def baseline_lines(tracer) -> list:
    """Inclusive times per call on the fixed cases that ROADMAP item 1 quotes."""
    lines = []

    def per_call(name, tag):
        calls = tracer.total(tracer.calls, name, tag)
        return tracer.total(tracer.incl_ns, name, tag) / calls / 1e6 if calls else None

    for name, tag in (("kernels.swap_term_sum", "(8, 8, 8)"),
                      ("kernels.swap_term_sum", "(64, 64)"),
                      ("separability.separability_report", str((2,) * 8))):
        ms = per_call(name, tag)
        if ms is not None:
            lines.append(f"{name} on {tag}: {ms:.3f} ms/call")
    ms = per_call("lu.invariance_experiment", "ghz3")
    if ms:
        shares = []
        for part in ("lu.haar_unitary", "lu.apply_local", "measures.multipartite_measure"):
            share = tracer.total(tracer.incl_ns, part, "ghz3") / tracer.total(
                tracer.incl_ns, "lu.invariance_experiment", "ghz3")
            shares.append(f"{part} {share:.0%}")
        lines.append(f"lu.invariance_experiment on ghz3: {ms:.3f} ms per 100 trials "
                     f"(x10 = {ms * 10:.1f} ms per 1000); " + ", ".join(shares))
    return lines


def run_all(args) -> int:
    """Run every workload in its own process and print their reports."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entwedge", "__init__.py")):
        print(f"perfbench: no entwedge package under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    env = pin_environment()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import numpy as np

    import entwedge as ew
    import workloads

    workdir = os.path.join(STATE_DIR, "work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        ctx = workloads.Context(args.seed % 2 ** 64, workdir, ROOT, env)
        wl = workloads.WORKLOADS[args.workload](ew, ctx)
        if args.setup_probe:
            wl.round(0)
            wl.warmup()
            return 0
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("env " + json.dumps(environment(ew, np, args), sort_keys=True))
        correct, attempted, failed, failures, metrics = (trace if args.trace else measure)(wl, args, env)
        for problem in failures[:20]:
            print("  FAILED " + problem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
