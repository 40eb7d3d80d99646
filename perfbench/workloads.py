"""The three workloads: inputs, one op, and the correctness check of an op.

Every workload is a closed loop with one client.  Ops come in rounds
of fixed composition; a run executes whole rounds, so every run times
the same mix whatever the seed, and the seed changes only amplitudes,
expression weights and experiment seeds.  The mixes are laid out so
that the p50 and the p90 op each fall inside one band of similar cost,
never on the step between two bands.

A workload object offers ``warmup()``, ``round(r)``, ``execute(op)``
(the timed call), ``verify(op, result)`` (``None`` or a failure
message), ``digest(result)`` (bytes compared between untraced and
traced runs), ``final_checks()`` and ``peak_rss_mb()``.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import reduce

import numpy as np

import reference as ref

# analyze-dense round: (dims, kinds), one op per listed kind, 100 ops.
# Bands by cost on the seed code (numpy backend): ~0.2-3.5 ms (34 ops),
# ~6-10 ms (44 ops, p50 in the middle), ~20 ms (15 ops, p90 inside),
# ~150 ms (6 ops, 8 qubits, 127 splits) and one op at the 4096 measure
# guard.  (4,)^6 takes 3 s an op on the seed code; rounds that long
# leave too few of them in a run to even out a shared machine's noise,
# so the guard is met as (64, 64).
DENSE_MIX = (
    ((2, 2), ("rand", "prod", "near3", "near9", "ghz")),
    ((3, 3), ("rand", "prod", "ghz")),
    ((2, 2, 2), ("rand", "prod", "near3", "near9", "ghz", "w")),
    ((2, 3, 4), ("rand", "prod", "near3")),
    ((3, 3, 3), ("rand", "prod", "ghz")),
    ((2, 2, 2, 2), ("rand", "prod", "near9", "ghz", "w")),
    ((4, 4, 4), ("rand", "near3")),
    ((2,) * 5, ("rand", "prod", "w")),
    ((3, 3, 3, 3), ("rand", "prod", "near3", "w")),
    ((8, 8, 8), ("rand",) * 5 + ("prod",) * 5 + ("near3",) * 4 + ("near9",) * 3 + ("ghz",) * 3),
    ((16, 16), ("rand", "rand", "rand", "prod", "prod", "near3", "near9", "ghz")),
    ((2,) * 6, ("rand", "rand", "prod", "prod", "near3", "near9", "ghz", "w")),
    ((4, 4, 4, 4), ("rand", "rand", "prod", "prod", "near3", "near9", "ghz", "w")),
    ((2,) * 7, ("rand",) * 3 + ("prod",) * 3 + ("near3",) * 3 + ("near9", "near9", "ghz", "ghz", "w", "w")),
    ((2,) * 8, ("rand", "prod", "near3", "near9", "ghz", "w")),
    ((64, 64), ("near9",)),
)

# invariance-lu round: (label, dims, kind, ops per round), 105 ops.
# Costs rise down the list; p50 falls among the forty 3-qubit ops and
# p90 in the middle of the twenty-five (2,3,4) ops.
LU_MIX = (
    ("bell", (2, 2), "ghz", 15),
    ("r33", (3, 3), "rand", 15),
    ("ghz3", (2, 2, 2), "ghz", 20),
    ("w3", (2, 2, 2), "w", 20),
    ("r2222", (2, 2, 2, 2), "rand", 10),
    ("r234", (2, 3, 4), "rand", 25),
)
LU_TRIALS = 100
# Local unitaries leave the measure unchanged; drift beyond rounding is wrong.
LU_MAX_DEVIATION = 1e-9

# cli-oneshot round: (subcommand, input, output format), 14 processes.
# Inputs starting with "@" are state files written at set-up.
CLI_OPS = (
    ("parse", "product8", "text"),
    ("parse", "qutrit2", "text"),
    ("measure", "ghz3", "text"),
    ("measure", "w3", "machine"),
    ("measure", "qutrit2", "text"),
    ("measure", "product8", "machine"),
    ("measure", "@r888", "text"),
    ("measure", "@p888", "machine"),
    ("measure", "@r22", "machine"),
    ("separability", "ghz3", "text"),
    ("separability", "w3", "machine"),
    ("separability", "@r888", "machine"),
    ("separability", "@p888", "text"),
    ("separability", "@r444", "text"),
)
STATE_FILES = {"r22": ((2, 2), "rand"), "r444": ((4, 4, 4), "rand"),
               "r888": ((8, 8, 8), "rand"), "p888": ((8, 8, 8), "prod")}
LAUNCH = "from entwedge.cli import main; main()"
CHILD_TIMEOUT_S = 60


@dataclass
class Context:
    """Where a workload runs: its seed, a private scratch directory, the
    repository root and the environment for child processes."""

    seed: int
    workdir: str
    root: str
    env: dict


@dataclass
class Op:
    label: str
    kind: str
    state: object = None  # entwedge.PureState, for in-process workloads
    amplitudes: np.ndarray = None
    seed: int = 0  # invariance experiment seed
    key: str = ""  # cli input name
    argv: tuple = ()
    verified: bytes = None  # digest of the first output that passed the check


def _state_op(ew, rng, dims, kind, label=None) -> Op:
    amps = ref.build_amplitudes(rng, dims, kind)
    return Op(label or str(dims), kind, ew.PureState(dims, amps), amps)


def _fail(what: str, got, want) -> str:
    return f"{what}: got {got!r}, want {want!r}"


def _check_separability(tensor, kind, splits, fully, cert_error, factors, amplitudes,
                        threshold, cert_tol):
    """Shared check of a separability outcome; ``splits`` is a list of
    ``(left_labels, residual, separable)``."""
    m = tensor.ndim
    if len(splits) != 2 ** (m - 1) - 1:
        return _fail("split count", len(splits), 2 ** (m - 1) - 1)
    want = ref.expected_separable(kind)
    for left, residual, separable in splits:
        expect = ref.residual(tensor, left)
        if not ref.close(residual, expect, kind):
            return _fail(f"residual {left}", residual, expect)
        if separable != want or separable != (residual <= threshold):
            return _fail(f"verdict {left}", separable, want)
    if fully != want:
        return _fail("fully separable", fully, want)
    if want:
        if cert_error is None or not cert_error <= cert_tol:
            return _fail("certificate error", cert_error, f"<= {cert_tol}")
        if factors is not None:
            rebuilt = ref.reconstruction_error(amplitudes, factors)
            if not rebuilt <= cert_tol or abs(rebuilt - cert_error) > 1e-12:
                return _fail("certificate rebuild", rebuilt, cert_error)
    elif cert_error is not None:
        return _fail("certificate error", cert_error, None)
    return None


class AnalyzeDense:
    name = "analyze-dense"

    def __init__(self, ew, ctx: Context):
        self.ew = ew
        self.sep = sys.modules["entwedge.separability"]
        rng = np.random.default_rng([ctx.seed])
        ops = [_state_op(ew, rng, dims, kind) for dims, kinds in DENSE_MIX for kind in kinds]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.warmup_op = _state_op(ew, rng, (2, 2), "rand")

    def round(self, r: int) -> list:
        return self.ops

    def warmup(self):
        self.execute(self.warmup_op)

    def execute(self, op: Op):
        state = op.state
        e = self.ew.multipartite_measure(state)
        c = self.ew.bipartite_concurrence(state) if state.num_subsystems == 2 else None
        return e, c, self.ew.separability_report(state)

    def digest(self, result) -> bytes:
        e, c, rep = result
        parts = [(str(p), v.residual, v.separable) for p, v in rep.per_partition.items()]
        cert = b"".join(np.asarray(f).tobytes() for f in rep.certificate or ())
        head = repr((e.value, e.term_sum, c and (c.value, c.term_sum), parts,
                     rep.fully_separable, rep.certificate_error))
        return head.encode() + cert

    def verify(self, op: Op, result):
        e, c, rep = result
        tensor = op.amplitudes.reshape(op.state.dims)
        ts = ref.multipartite_term_sum(tensor)
        if not ref.close(e.term_sum, ts, op.kind) or not ref.value_close(
                e.value, ts, e.norm_constant, op.kind):
            return _fail("multipartite term sum", e.term_sum, ts)
        if tensor.ndim == 2:
            ts = ref.bipartite_term_sum(tensor)
            if not ref.close(c.term_sum, ts, op.kind) or not ref.value_close(
                    c.value, ts, c.norm_constant, op.kind):
                return _fail("bipartite term sum", c.term_sum, ts)
        splits = [(p.left, v.residual, v.separable) for p, v in rep.per_partition.items()]
        return _check_separability(
            tensor, op.kind, splits, rep.fully_separable, rep.certificate_error,
            rep.certificate, op.amplitudes, rep.threshold, self.sep.CERTIFICATE_TOL)

    def final_checks(self) -> list:
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class InvarianceLU:
    name = "invariance-lu"

    def __init__(self, ew, ctx: Context):
        self.ew = ew
        self.seed = ctx.seed
        rng = np.random.default_rng([ctx.seed])
        self.states = {label: _state_op(ew, rng, dims, kind, label)
                       for label, dims, kind, _ in LU_MIX}
        labels = [label for label, _, _, count in LU_MIX for _ in range(count)]
        self.labels = [labels[i] for i in rng.permutation(len(labels))]
        self.repeats = {}  # label -> (op, digest) of its first checked run

    def _op(self, label: str, seed: int) -> Op:
        base = self.states[label]
        return Op(label, base.kind, base.state, base.amplitudes, seed=int(seed))

    def round(self, r: int) -> list:
        seeds = np.random.default_rng([self.seed, r]).integers(0, 2 ** 63, size=len(self.labels))
        return [self._op(label, s) for label, s in zip(self.labels, seeds)]

    def warmup(self):
        self.execute(self._op("bell", 2 ** 63))

    def execute(self, op: Op):
        return self.ew.invariance_experiment(op.state, trials=LU_TRIALS, seed=op.seed)

    def digest(self, run) -> bytes:
        head = repr((run.measure_kind, run.norm_constant, run.baseline_value, run.seed,
                     run.trials, run.max_abs_deviation))
        return head.encode() + np.asarray(run.deviations, dtype=np.float64).tobytes()

    def verify(self, op: Op, run):
        kind, ts = ref.auto_term_sum(op.amplitudes.reshape(op.state.dims))
        if run.measure_kind != kind:
            return _fail("measure kind", run.measure_kind, kind)
        if not ref.value_close(run.baseline_value, ts, run.norm_constant, op.kind):
            return _fail("baseline", run.baseline_value, math.sqrt(run.norm_constant * ts))
        if (run.seed, run.trials) != (op.seed, LU_TRIALS) or run.deviations is None:
            return _fail("seed, trials", (run.seed, run.trials), (op.seed, LU_TRIALS))
        devs = np.asarray(run.deviations, dtype=np.float64)
        if devs.shape != (LU_TRIALS,) or not np.all(np.isfinite(devs)):
            return _fail("deviations", devs.shape, (LU_TRIALS,))
        worst = float(np.max(np.abs(devs)))
        if worst != run.max_abs_deviation or worst > LU_MAX_DEVIATION:
            return _fail("max abs deviation", run.max_abs_deviation, worst)
        self.repeats.setdefault(op.label, (op, self.digest(run)))
        return None

    def final_checks(self) -> list:
        """Re-run the first op of every state: each deviation must repeat
        bitwise for the same experiment seed."""
        problems = []
        for op, digest in self.repeats.values():
            if self.digest(self.execute(op)) != digest:
                problems.append(f"{op.label} seed {op.seed}: repeat differs")
        return problems

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sqrt_expr(rng, dims, kets):
    """Normalized superposition with ``sqrt(a/n)`` weights and a seeded
    phase (+1, -1 or i) on every term after the first."""
    n = int(rng.integers(10 ** 5, 10 ** 6))
    weights = [int(w) for w in rng.integers(1, n // len(kets), size=len(kets) - 1)]
    weights.append(n - sum(weights))
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    pieces = []
    for pos, (ket, w) in enumerate(zip(kets, weights)):
        phase = 1 if pos == 0 else (1, -1, 1j)[int(rng.integers(0, 3))]
        body = f"sqrt({w}/{n}) " + ("i " if phase == 1j else "") + "|" + ",".join(map(str, ket)) + ">"
        pieces.append(body if pos == 0 else (" - " if phase == -1 else " + ") + body)
        amps[np.ravel_multi_index(ket, dims)] = phase * math.sqrt(w / n)
    return "".join(pieces), dims, amps


def _product8_expr(rng):
    """``1/16`` times eight seeded single-qubit sums, an exact product."""
    choices = (("(|0>+|1>)", 1), ("(|0>-|1>)", -1), ("(|0>+i|1>)", 1j), ("(|0>-i|1>)", -1j))
    picks = [choices[int(k)] for k in rng.integers(0, 4, size=8)]
    text = "1/16 " + "".join(p[0] for p in picks)
    amps = reduce(np.kron, [np.array([1, p[1]], dtype=np.complex128) for p in picks]) / 16
    return text, (2,) * 8, amps


_SPLIT_LINE = re.compile(r"^split \{([\d,]+)\}: residual=(\S+) (separable|entangled)$")


class CliOneshot:
    """One ``entwedge`` process per op, launched as ``python -c`` on
    ``entwedge.cli.main`` with ``src/`` first on the path.  With
    ``in_process`` set, ``main()`` runs inside this process instead,
    stdout captured, which is how the traced run times the CLI layer."""

    name = "cli-oneshot"

    def __init__(self, ew, ctx: Context):
        self.ew = ew
        self.ctx = ctx
        self.in_process = False
        self.sep = sys.modules["entwedge.separability"]
        rng = np.random.default_rng([ctx.seed])
        self.inputs = {
            "product8": ("expr", "prod", *_product8_expr(rng)),
            "ghz3": ("expr", "rand", *_sqrt_expr(rng, (2, 2, 2), [(0, 0, 0), (1, 1, 1)])),
            "w3": ("expr", "rand", *_sqrt_expr(rng, (2, 2, 2), [(0, 0, 1), (0, 1, 0), (1, 0, 0)])),
            "qutrit2": ("expr", "rand", *_sqrt_expr(rng, (3, 3), [(0, 0), (1, 1), (2, 2)])),
        }
        self.inputs.update(self.save_states(ctx.workdir))
        self.ops = [Op(f"{c} {n} {f}", self.inputs[n][1], key=n, argv=self._argv(c, n, f))
                    for c, n, f in (CLI_OPS[i] for i in rng.permutation(len(CLI_OPS)))]

    def save_states(self, workdir: str) -> dict:
        """Write the seeded state files with ``entwedge.save_state``."""
        rng = np.random.default_rng([self.ctx.seed, 1])
        inputs = {}
        for name, (dims, kind) in STATE_FILES.items():
            amps = ref.build_amplitudes(rng, dims, kind)
            path = os.path.join(workdir, name + ".json")
            self.ew.save_state(self.ew.PureState(dims, amps), path)
            inputs["@" + name] = ("state", kind, path, dims, amps)
        return inputs

    def _argv(self, command, name, fmt):
        source, _, value, _, _ = self.inputs[name]
        argv = [command, "--" + source, value]
        return tuple(argv + (["--output", "machine"] if fmt == "machine" else []))

    def round(self, r: int) -> list:
        return self.ops

    def warmup(self):
        self.execute(self.ops[0])

    def execute(self, op: Op):
        if self.in_process:
            return self._execute_in_process(op.argv)
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCH, *op.argv], cwd=self.ctx.root, env=self.ctx.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def _execute_in_process(self, argv):
        cli = importlib.import_module("entwedge.cli")
        out, err = io.StringIO(), io.StringIO()
        saved = sys.argv
        sys.argv = ["entwedge", *argv]
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    cli.main()
                    code = 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        finally:
            sys.argv = saved
        return code, out.getvalue().encode()

    def digest(self, result) -> bytes:
        code, stdout = result
        return repr(code).encode() + b"\n" + stdout

    def verify(self, op: Op, result):
        code, stdout = result
        if code != 0 or not stdout.strip():
            return _fail("exit code, stdout bytes", (code, len(stdout)), (0, "> 0"))
        command = op.argv[0]
        fmt = "machine" if "--output" in op.argv else "text"
        _, kind, _, dims, amps = self.inputs[op.key]
        text = stdout.decode()
        tensor = amps.reshape(dims)
        if command == "parse":
            return self._verify_parse(text, dims, amps)
        if command == "measure":
            want_kind, ts = ref.auto_term_sum(tensor)
            if fmt == "machine":
                doc = json.loads(text)
                got = (doc["measure_kind"], doc["value"], doc["term_sum"], doc["norm_constant"])
            else:
                fields = dict(line.split(": ", 1) for line in text.splitlines())
                got = (fields["kind"], float(fields["value"]), float(fields["term sum"]),
                       float(fields["norm constant"]))
            if got[0] != want_kind or not ref.close(got[2], ts, kind) or not ref.value_close(
                    got[1], ts, got[3], kind):
                return _fail("measure", got, (want_kind, ts))
            return None
        if fmt == "machine":
            doc = json.loads(text)
            splits = [(tuple(p["left"]), p["residual"], p["separable"]) for p in doc["partitions"]]
            factors = None
            if doc["certificate"] is not None:
                factors = [np.array([complex(z["re"], z["im"]) for z in f]) for f in doc["certificate"]]
            fully, cert_error, threshold = doc["fully_separable"], doc["certificate_error"], doc["threshold"]
        else:
            lines = text.splitlines()
            threshold = float(lines[0].removeprefix("threshold: "))
            splits = []
            for line in lines[1:]:
                match = _SPLIT_LINE.match(line)
                if match:
                    left = tuple(int(x) for x in match.group(1).split(","))
                    splits.append((left, float(match.group(2)), match.group(3) == "separable"))
            fully = "fully separable: yes" in lines
            cert = [ln for ln in lines if ln.startswith("certificate reconstruction error: ")]
            cert_error = float(cert[0].rpartition(" ")[2]) if cert else None
            factors = None
        return _check_separability(tensor, kind, splits, fully, cert_error, factors, amps,
                                   threshold, self.sep.CERTIFICATE_TOL)

    @staticmethod
    def _verify_parse(text, dims, amps):
        lines = text.splitlines()
        got_dims = tuple(int(x) for x in lines[1].removeprefix("dims: ").split(","))
        if got_dims != tuple(dims):
            return _fail("dims", got_dims, dims)
        got = {}
        for line in lines[2:]:
            label, _, values = line.removeprefix("amp |").partition(">: ")
            re_text, im_text = values.split(" ")
            idx = tuple(int(x) for x in label.split(","))
            got[idx] = complex(float(re_text[3:]), float(im_text[3:]))
        tensor = amps.reshape(dims)
        want = {tuple(int(x) for x in idx): tensor[idx] for idx in zip(*np.nonzero(tensor))}
        if set(got) != set(want):
            return _fail("nonzero amplitudes", len(got), len(want))
        worst = max(abs(got[k] - want[k]) for k in want)
        if worst > 1e-14:
            return _fail("amplitude error", worst, "<= 1e-14")
        return None

    def final_checks(self) -> list:
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (AnalyzeDense, InvarianceLU, CliOneshot)}
