"""Command-line behaviour: outputs, determinism, and exit codes."""

from __future__ import annotations

import copy
import gc
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import entwedge
from entwedge import PureState, invariance_experiment, save_state
from entwedge.cli import build_parser, cli_main, main
from entwedge.ketlang import MAX_NESTING, MAX_RADICAND_DIVISIONS
from entwedge.separability import DEFAULT_THRESHOLD
from conftest import HOSTILE_STATE_FILES, PRINT_PEAK_KB, bell_state, child_env, random_state

BELL_EXPR = "sqrt(1/2) (|0,0> + |1,1>)"
GHZ3_EXPR = "sqrt(1/2) (|0,0,0> + |1,1,1>)"
GHZ4_EXPR = "sqrt(1/2) (|0,0,0,0> + |1,1,1,1>)"


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasure:
    def test_bell_text(self, capsys):
        code, out, err = run_cli(capsys, "measure", "--expr", BELL_EXPR)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "kind: bipartite_concurrence"
        value = float(lines[2].split(": ")[1])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_bell_machine(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--expr", BELL_EXPR, "--output", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "measure"
        assert doc["measure_kind"] == "bipartite_concurrence"
        assert doc["norm_constant"] == 2.0
        assert doc["value"] == pytest.approx(1.0, abs=1e-12)
        assert doc["term_sum"] == pytest.approx(0.5, abs=1e-12)
        assert doc["input"]["expr"] == BELL_EXPR
        assert doc["input"]["state"] is None
        assert "note" not in doc

    def test_ghz3_machine(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--expr", GHZ3_EXPR, "--output", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["measure_kind"] == "multipartite_e"
        assert doc["value"] == pytest.approx(math.sqrt(6.0), abs=1e-12)

    def test_norm_constant_flag(self, capsys):
        # the prefactor is a constant: scale the printed term sum for another
        for command in ("measure", "invariance"):
            with pytest.raises(SystemExit) as info:
                cli_main([command, "--expr", BELL_EXPR, "--norm-constant", "1"])
            assert info.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("usage: entwedge ")
            assert "unrecognized arguments: --norm-constant 1" in err

    def test_norm_constant_eight_is_e_on_two_subsystems(self, capsys, tmp_path, rng):
        # E on two subsystems is 2C, so there is no measure to pick there:
        # it is sqrt(8 * term_sum) of the printed term sum, bit for bit
        state = random_state(rng, (3, 4))
        path = str(tmp_path / "state.json")
        save_state(state, path)
        code, out, _ = run_cli(capsys, "measure", "--state", path, "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["measure_kind"] == "bipartite_concurrence"
        assert math.sqrt(8.0 * doc["term_sum"]) == entwedge.multipartite_measure(state).value
        assert "note" not in doc

    def test_state_file_input(self, capsys, tmp_path):
        path = str(tmp_path / "bell.json")
        save_state(bell_state(), path)
        code, out, _ = run_cli(
            capsys, "measure", "--state", path, "--output", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(1.0, abs=1e-12)
        assert doc["input"]["state"] == path
        assert doc["input"]["expr"] is None


class TestSeparability:
    def test_product_expression(self, capsys):
        # the certificate holds one basis vector per slot, up to phase
        for expr, want in [("|0> |1>", [[1.0], [0.0, 1.0]]),
                           ("|1,0,1>", [[0.0, 1.0], [1.0], [0.0, 1.0]])]:
            code, out, err = run_cli(
                capsys, "separability", "--expr", expr, "--output", "machine"
            )
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert doc["fully_separable"] is True
            assert doc["certificate_error"] <= 1e-12
            moduli = [[abs(complex(e["re"], e["im"])) for e in f] for f in doc["certificate"]]
            assert moduli == want
            assert all(p["separable"] for p in doc["partitions"])

    def test_bell_text(self, capsys):
        code, out, _ = run_cli(capsys, "separability", "--expr", BELL_EXPR)
        assert code == 0
        assert "split {1}: " in out
        assert "entangled" in out
        assert "fully separable: no" in out

    def test_ghz4_machine(self, capsys):
        code, out, _ = run_cli(
            capsys, "separability", "--expr", GHZ4_EXPR, "--output", "machine"
        )
        doc = json.loads(out)
        assert code == 0
        assert len(doc["partitions"]) == 7
        assert doc["fully_separable"] is False
        assert doc["certificate"] is None
        lefts = [tuple(p["left"]) for p in doc["partitions"]]
        assert lefts == [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)]
        assert all(
            p["residual"] == pytest.approx(0.5, abs=1e-12) for p in doc["partitions"]
        )

    def test_genuinely_entangled_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "separability", "--expr", GHZ4_EXPR, "--output", "machine"
        )
        assert code == 0
        assert json.loads(out)["genuinely_entangled"] is True
        code, out, _ = run_cli(capsys, "separability", "--expr", "|0> |1>")
        assert code == 0
        lines = out.splitlines()
        at = lines.index("fully separable: yes")
        assert lines[at + 1] == "genuinely entangled: no"

    def test_threshold_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "separability", "--expr", GHZ3_EXPR, "--threshold", "0.6",
            "--output", "machine",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["threshold"] == 0.6
        assert doc["fully_separable"] is True
        # the certificate check still reports a large reconstruction error
        assert doc["certificate_error"] > 0.1


class TestInvariance:
    def test_bell_machine(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariance", "--expr", BELL_EXPR, "--trials", "5",
            "--seed", "11", "--output", "machine",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["measure_kind"] == "bipartite_concurrence"
        assert doc["baseline_value"] == pytest.approx(1.0, abs=1e-12)
        assert doc["seed"] == 11
        assert doc["trials"] == 5
        assert len(doc["deviations"]) == 5
        assert doc["max_abs_deviation"] <= 1e-9

    def test_text_lines(self, capsys):
        for expr, trials, kind in [(GHZ3_EXPR, "3", "multipartite_e"),
                                   (BELL_EXPR, "10", "bipartite_concurrence")]:
            code, out, err = run_cli(capsys, "invariance", "--expr", expr, "--trials", trials)
            assert (code, err) == (0, "")
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            assert list(fields) == ["measure", "baseline value", "seed", "trials",
                                    "max abs deviation"]
            assert (fields["measure"], fields["seed"], fields["trials"]) == (kind, "0", trials)
            assert float(fields["max abs deviation"]) <= 1e-9

    def test_longest_run_returns_every_deviation(self, capsys):
        # the most trials the invariance price allows on any dims, on
        # (1, 1); one more is refused (TestExitCodes)
        code, out, err = run_cli(
            capsys, "invariance", "--expr", "|0,0>", "--trials", "66622", "--output", "machine"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["trials"] == 66622
        assert len(doc["deviations"]) == 66622


class TestParse:
    def test_bell(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--expr", BELL_EXPR)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"expression: {BELL_EXPR}"
        assert lines[1] == "dims: 2,2"
        root_half = repr(math.sqrt(2.0) / 2.0)
        assert lines[2] == f"amp |0,0>: re={root_half} im=0.0"
        assert lines[3] == f"amp |1,1>: re={root_half} im=0.0"

    def test_leading_minus_joined_to_its_flag(self, capsys):
        # as a separate argument argparse would read '-|0>+|1>' as an option
        code, out, _ = run_cli(capsys, "parse", "--expr=-|0>+|1>")
        assert code == 0
        assert out.splitlines()[0] == "expression: -|0> + |1>"

    def test_only_nonzero_amplitudes(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--expr", "0.6 |0> + 0.8 i |2>")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "dims: 3"
        assert lines[2] == "amp |0>: re=0.6 im=0.0"
        assert lines[3] == "amp |2>: re=0.0 im=0.8"
        assert len(lines) == 4


W3_EXPR = "sqrt(1/3) (|0,0,1> + |0,1,0> + |1,0,0>)"

# The default outputs a change must leave byte-identical: every input
# through measure and separability (text and machine), invariance and,
# for the expressions, parse.
DEFAULT_OUTPUT_INPUTS = {"bell": BELL_EXPR, "ghz3": GHZ3_EXPR, "w3": W3_EXPR, "file234": None}
DEFAULT_OUTPUT_COMMANDS = {
    "measure-text": ("measure",),
    "measure-machine": ("measure", "--output", "machine"),
    "separability-text": ("separability",),
    "separability-machine": ("separability", "--output", "machine"),
    "invariance-machine": ("invariance", "--trials", "200", "--output", "machine"),
    "parse": ("parse",),
}
DEFAULT_OUTPUT_CASES = [
    pytest.param(name, command, id=f"{name}-{command}")
    for name in DEFAULT_OUTPUT_INPUTS
    for command in DEFAULT_OUTPUT_COMMANDS
    # parse reads expressions only
    if not (command == "parse" and DEFAULT_OUTPUT_INPUTS[name] is None)
]


def default_source(tmp_path, name) -> tuple:
    """The input flags of a ``DEFAULT_OUTPUT_INPUTS`` entry, writing the
    seeded (2, 3, 4) state file the entry without an expression names."""
    expr = DEFAULT_OUTPUT_INPUTS[name]
    if expr is not None:
        return ("--expr", expr)
    path = str(tmp_path / "state234.json")
    save_state(random_state(np.random.default_rng(234), (2, 3, 4)), path)
    return ("--state", path)


class TestDeterminism:
    def repeat(self, capsys, *argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        return first

    @pytest.mark.parametrize("name, command", DEFAULT_OUTPUT_CASES)
    def test_default_outputs(self, capsys, tmp_path, name, command):
        source = default_source(tmp_path, name)
        code, out, err = self.repeat(capsys, *DEFAULT_OUTPUT_COMMANDS[command], *source)
        assert (code, err) == (0, "")
        assert out.endswith("\n")

    def test_default_outputs_across_processes(self, tmp_path):
        # identical invocations in fresh interpreters, hashing strings
        # differently, on one and on two BLAS threads: the same bytes
        path = str(tmp_path / "state234.json")
        save_state(random_state(np.random.default_rng(234), (2, 3, 4)), path)
        runs = []
        for param in DEFAULT_OUTPUT_CASES:
            name, command = param.values
            expr = DEFAULT_OUTPUT_INPUTS[name]
            source = ["--state", path] if expr is None else ["--expr", expr]
            runs.append([*DEFAULT_OUTPUT_COMMANDS[command], *source])
        code = "\n".join([
            "import json, sys",
            "from entwedge.cli import cli_main",
            "for argv in json.loads(sys.argv[1]):",
            "    print(f'exit {cli_main(argv)}', flush=True)",
        ])
        outputs = []
        for count in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", code, json.dumps(runs)], capture_output=True,
                env=child_env(PYTHONHASHSEED=count, OPENBLAS_NUM_THREADS=count), timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0].count(b"exit 0\n") == len(runs)
        assert outputs[0] == outputs[1]

    def test_certificate_error_ignores_blas_threads(self, tmp_path):
        # a (1, 16384) state is a product with one 16384-entry factor, long
        # enough that a BLAS dot product or norm would split it by threads
        path = str(tmp_path / "wide.json")
        save_state(random_state(np.random.default_rng(14), (1, 16384)), path)
        code = "\n".join([
            "import sys",
            "from entwedge.cli import cli_main",
            "for output in ('text', 'machine'):",
            "    assert cli_main(['separability', '--state', sys.argv[1], '--output', output]) == 0",
        ])
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", code, path], capture_output=True,
                env=child_env(OPENBLAS_NUM_THREADS=threads), timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
            outputs.append(proc.stdout)
        assert b"\ncertificate reconstruction error: " in outputs[0]
        assert outputs[0] == outputs[1]

    def test_norms_ignore_blas_threads(self, tmp_path):
        # the norm in a refusal and normalize's quotient, on states long
        # enough that a BLAS norm would split them by threads
        path = str(tmp_path / "loose.json")
        rng = np.random.default_rng(16)
        amps = rng.standard_normal(2 ** 16) + 1j * rng.standard_normal(2 ** 16)
        save_state(PureState((1, 2 ** 16), amps), path)
        code = "\n".join([
            "import hashlib, sys",
            "import numpy as np",
            "from entwedge import PureState, load_state, normalize",
            "from entwedge.cli import cli_main",
            "print(cli_main(['measure', '--state', sys.argv[1]]))",
            "rng = np.random.default_rng(20)",
            "z = rng.standard_normal(2 ** 20) + 1j * rng.standard_normal(2 ** 20)",
            "for state in (load_state(sys.argv[1]), PureState((1, 2 ** 20), z)):",
            "    print(hashlib.sha256(normalize(state).amplitudes.tobytes()).hexdigest())",
        ])
        runs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", code, path], capture_output=True,
                env=child_env(OPENBLAS_NUM_THREADS=threads), timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith(b"2\n")
            assert proc.stderr.startswith(b"error: state norm is ")
            runs.append((proc.stdout, proc.stderr))
        assert runs[0] == runs[1]

    def test_measure(self, capsys, tmp_path, rng):
        path = str(tmp_path / "state.json")
        save_state(random_state(rng, (3, 2, 2)), path)
        self.repeat(capsys, "measure", "--state", path, "--output", "machine")

    def test_separability(self, capsys):
        self.repeat(capsys, "separability", "--expr", GHZ4_EXPR, "--output", "machine")

    def test_invariance(self, capsys):
        code, out, _ = self.repeat(
            capsys, "invariance", "--expr", BELL_EXPR, "--trials", "4",
            "--seed", "7", "--output", "machine",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 7


# the default outputs that report the prefactor
PREFACTOR_CASES = [
    param for param in DEFAULT_OUTPUT_CASES
    if param.values[1] in ("measure-text", "measure-machine", "invariance-machine")
]


class TestDefaults:
    @pytest.mark.parametrize("name, command", PREFACTOR_CASES)
    def test_prefactor_is_two(self, capsys, tmp_path, name, command):
        # every reported value is bitwise sqrt(2 * term_sum)
        source = default_source(tmp_path, name)
        code, out, err = run_cli(capsys, *DEFAULT_OUTPUT_COMMANDS[command], *source)
        assert (code, err) == (0, "")
        if command == "measure-text":
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            assert fields["norm constant"] == "2.0"
            value, term_sum = float(fields["value"]), float(fields["term sum"])
        else:
            doc = json.loads(out)
            assert doc["norm_constant"] == 2.0
            if command == "invariance-machine":
                value = doc["baseline_value"]
                _, out, _ = run_cli(capsys, "measure", *source, "--output", "machine")
                doc = json.loads(out)
            else:
                value = doc["value"]
            term_sum = doc["term_sum"]
        assert value.hex() == math.sqrt(2.0 * term_sum).hex()

    def test_flag_defaults_are_the_library_defaults(self):
        parser = build_parser()
        separability = parser.parse_args(["separability", "--expr", BELL_EXPR])
        assert separability.threshold == DEFAULT_THRESHOLD
        invariance = parser.parse_args(["invariance", "--expr", BELL_EXPR])
        params = inspect.signature(invariance_experiment).parameters
        assert invariance.trials == params["trials"].default
        assert invariance.seed == params["seed"].default


class TestExitCodes:
    def test_syntax_error_is_one(self, capsys):
        code, out, err = run_cli(capsys, "measure", "--expr", "|0> +")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_ketless_expression_is_one(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--expr", "1 + 2")
        assert code == 1
        assert "no kets" in err

    def test_bad_state_file_is_one(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run_cli(capsys, "measure", "--state", str(path))
        assert code == 1
        assert "not valid JSON" in err

    @pytest.mark.parametrize("fragment", sorted(HOSTILE_STATE_FILES))
    def test_hostile_state_file_is_one(self, capsys, tmp_path, int_digit_limit, fragment):
        path = tmp_path / "hostile.json"
        path.write_bytes(HOSTILE_STATE_FILES[fragment])
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "measure", "--state", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read as JSON: ")
        assert err.count("\n") == 1 and fragment in err

    def test_huge_total_dimension_is_three(self, capsys, tmp_path, int_digit_limit):
        # two 4300-digit dims multiply past the digits str() prints
        n = "9" * 4300
        path = tmp_path / "huge.json"
        path.write_text(f'{{"dims": [{n}, {n}], "amplitudes": []}}', encoding="utf-8")
        for source in (("--expr", f"|{n},{n}>"), ("--state", str(path))):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "measure", *source)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (3, "")
            assert err.startswith("error: total dimension of 28569 bits exceeds")
            assert err.count("\n") == 1

    def test_missing_state_file_is_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "measure", "--state", str(tmp_path / "no.json"))
        assert code == 1
        assert "cannot read" in err

    def test_unnormalized_is_two(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--expr", "|0,0> + |1,1>")
        assert code == 2
        assert "squared norm" in err or "norm" in err

    def test_size_guard_is_three(self, capsys, tmp_path):
        doc = {"dims": [2048, 1024], "amplitudes": []}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "separability", "--state", str(path))
        assert code == 3
        assert "exceeds" in err

    @pytest.mark.parametrize("command", ["measure", "separability", "invariance"])
    def test_oversized_bipartite_expression_is_three(self, capsys, command):
        # 256 x 256 is within the state guard but far above the measure
        # guard; the quadratic minor sum must never start
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--expr", "|255,255>")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "exceeds the measure guard" in err

    @pytest.mark.parametrize("command, expr", [
        # a one-row split: no minors, so nothing to unfold or sum
        ("separability", "|0,1048575>"),
        # 127 splits, each with a one-row side, on a 2**20-entry state
        ("separability", "|1048575,0,0,0,0,0,0,0>"),
        ("measure", "|1048575,0,0,0,0,0,0,0>"),
    ])
    def test_free_kernel_with_costly_rest_is_accepted(self, capsys, command, expr):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--expr", expr)
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        if command == "measure":
            assert out.endswith("value: 0.0\nterm sum: 0.0\n")
        else:
            splits = [line for line in out.splitlines() if line.startswith("split ")]
            assert splits and all(line.endswith(": residual=0.0 separable") for line in splits)
            assert "fully separable: yes\n" in out

    def test_wide_product_is_certified(self, capsys):
        # (2, 8192): one row pair times 8192^2 columns for the kernel,
        # and the certificate is the SVDs of a (2, 8192) and an (8192, 2)
        # unfolding, which add no price of their own
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "separability", "--expr", "|1,8191>")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert "fully separable: yes\n" in out

    def test_cheap_shape_past_4096_is_measured(self, capsys):
        # (2, 8192): one row pair times 8192^2 columns, well under the
        # measure guard, though its total dimension is past 4096
        code, out, err = run_cli(capsys, "measure", "--expr", "sqrt(1/2)|0,0>+sqrt(1/2)|1,8191>")
        assert (code, err) == (0, "")
        assert out.startswith("kind: bipartite_concurrence\n")

    @pytest.mark.parametrize("command", ["parse", "measure"])
    def test_long_division_chain_is_three(self, capsys, command):
        # 100 decimals of 1200 digits, 120 KB, still fit one argument
        text = "/".join(["0." + "7" * 1200] * 100) + "|0>"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--expr", text)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "expanding the expression costs 102 steps times 797501 bits" in err

    @pytest.mark.parametrize("command", ["parse", "measure", "separability", "invariance"])
    def test_exponential_expansion_is_three(self, capsys, command):
        # 2**20 terms from 255 bytes: each two-term factor doubles the work
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
        text = "".join(f"(1+sqrt({p}))" for p in primes) + "|0>"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--expr", text)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "steps to expand" in err

    @pytest.mark.parametrize("command", ["parse", "measure"])
    def test_costly_radicands_are_three(self, capsys, command):
        # 200 pairs of primes below the cap, 9.2 KB: factoring the 400
        # radicands as they were read took 10 s before they were priced
        pair = f"sqrt({2 ** 53 - 111})/sqrt({2 ** 53 - 145})"
        text = " ".join([pair] * 200) + " |0,0>"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--expr", text)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert f"sqrt radicands takes over {MAX_RADICAND_DIVISIONS} divisions" in err

    @pytest.mark.parametrize("command", ["parse", "measure", "separability", "invariance"])
    def test_long_decimal_expansion_is_three(self, capsys, command):
        # 6185 steps, under the step cap, but on numbers of 73118 bits:
        # the expansion took about 1.2 s before the bits were priced
        decimal = "0." + "7" * 1000
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        text = "".join(f"({decimal}+sqrt({p}))" for p in primes) + "|0>"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--expr", text)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "6185 steps times 73118 bits" in err

    @pytest.mark.parametrize("expr, trials", [
        (BELL_EXPR, "1000000000"),
        ("|0,0>", "66623"),  # one past the longest run the price allows
        ("|63,63>", "1000"),  # about 0.25 s a trial on the current kernel
    ])
    def test_oversized_invariance_run_is_three(self, capsys, expr, trials):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "invariance", "--expr", expr, "--trials", trials)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "the invariance guard" in err

    def test_nan_threshold_is_two(self, capsys):
        code, out, err = run_cli(
            capsys, "separability", "--expr", BELL_EXPR, "--threshold", "nan"
        )
        assert code == 2
        assert out == ""
        assert "threshold must be finite" in err

    def test_negative_threshold_is_two(self, capsys):
        # a product state would otherwise be reported entangled
        code, out, err = run_cli(
            capsys, "separability", "--expr", "|0,0>", "--threshold", "-1"
        )
        assert code == 2
        assert out == ""
        assert "threshold must be finite and nonnegative, got -1.0" in err

    def test_nan_state_file_is_one(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"dims": [2, 2], "amplitudes": [{"idx": [0, 0], "re": NaN, "im": 0.0}]}',
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "measure", "--state", str(path))
        assert code == 1
        assert out == ""
        assert "expected a finite number" in err

    @pytest.mark.parametrize(
        "scale, shown",
        [("1" + "0" * 200, "1e+200"), ("0." + "0" * 199 + "1", "1e-200")],
        ids=["1e+200", "1e-200"],
    )
    def test_norm_is_named_at_its_size(self, capsys, scale, shown):
        # the squared norm overflows or underflows; the message scales
        code, out, err = run_cli(capsys, "measure", "--expr", f"{scale} |0,0>")
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: state norm is {shown}, not 1 within 1e-09"]

    def test_overflowing_amplitude_is_two(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--expr", "1" + "0" * 400 + " |0,0> + |1,1>")
        assert code == 2
        assert "overflows" in err

    def test_radicand_beyond_cap_is_one(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "parse", "--expr", f"sqrt({2 ** 53 + 1}) |0>")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("command", ["parse", "measure"])
    @pytest.mark.parametrize(
        "text", ["|" + "1" * 5000 + ">", "1" * 5000 + "|0>"], ids=["index", "amplitude"]
    )
    def test_overlong_number_is_one(self, capsys, int_digit_limit, command, text):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--expr", text)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: number literal of 5000 characters is too long")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, ket", [("parse", "|0>"), ("measure", "|0,0>")])
    def test_long_quotient_is_not_a_parse_error(self, capsys, int_digit_limit, command, ket):
        # the quotient has more digits in lowest terms than Python prints,
        # but the chain prints as written; its value is 21
        chain = "0." + "7" * 3000 + "/0." + "3" * 2999 + "1/0." + "1" * 2999 + "3"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--expr", chain + ket)
        assert time.perf_counter() - start < 1.0
        if command == "parse":
            assert (code, err) == (0, "")
            assert out.splitlines() == [f"expression: {chain} |0>", "dims: 1",
                                        "amp |0>: re=21.0 im=0.0"]
        else:
            assert (code, out) == (2, "")
            assert err == "error: state norm is 21.0, not 1 within 1e-09\n"

    def test_deep_nesting_is_one(self, capsys):
        # 400 levels would exhaust the recursive parser's stack without the cap
        code, out, err = run_cli(capsys, "parse", "--expr", "(" * 400 + "|0>" + ")" * 400)
        assert code == 1
        assert out == ""
        assert err.startswith("error: parentheses nest deeper than the cap of 64")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["--expr", "|0> + |0,0>"], 1, "summed terms have different slot counts"),
            (["--expr", "1"], 1, "expression has no kets"),
            (["--state", "schema.json"], 1, "top level: unknown field 'extra'"),
            (["--state", "missing.json"], 1, "cannot read "),
            (["--expr", "|0>"], 2, "multipartite measure needs at least 2 subsystems"),
        ],
        ids=["mixed-slots", "no-kets", "schema", "unreadable", "one-subsystem"],
    )
    def test_exit_code_is_read_off_the_error(self, capsys, tmp_path, argv, code, message):
        # one raise site each of the kinds of refusal that share a class
        (tmp_path / "schema.json").write_text(
            '{"dims": [2], "amplitudes": [], "extra": 1}', encoding="utf-8"
        )
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
        got, out, err = run_cli(capsys, "measure", *argv)
        assert (got, out) == (code, "")
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1

    def test_parse_subcommand_syntax_error(self, capsys):
        code, _, err = run_cli(capsys, "parse", "--expr", "|0,")
        assert code == 1
        assert err.startswith("error: ")

    def test_argparse_rejects_missing_input(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["measure"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_argparse_rejects_both_inputs(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli_main(["measure", "--state", "x.json", "--expr", "|0>"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_argparse_rejects_unknown_measure(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["measure", "--expr", BELL_EXPR, "--measure", "spectral"])
        assert info.value.code == 2
        assert "unrecognized arguments: --measure" in capsys.readouterr().err

    def test_measure_has_no_measure_flag(self, capsys):
        # measure picks C on two subsystems and E otherwise
        with pytest.raises(SystemExit) as info:
            cli_main(["measure", "--expr", BELL_EXPR, "--measure", "multipartite"])
        assert info.value.code == 2
        assert "unrecognized arguments: --measure" in capsys.readouterr().err

    def test_invariance_has_no_measure_flag(self, capsys):
        # invariance always tracks the auto measure
        with pytest.raises(SystemExit) as info:
            cli_main(["invariance", "--expr", BELL_EXPR, "--measure", "multipartite"])
        assert info.value.code == 2
        assert "unrecognized arguments: --measure" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "entwedge.cli", "measure", "--expr", BELL_EXPR],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("kind: bipartite_concurrence\n")

    def test_children_import_the_tested_copy(self):
        # child_env points a child at the entwedge this run imported,
        # whether a checkout's src/ or an installed package
        proc = subprocess.run(
            [sys.executable, "-c", "import entwedge; print(entwedge.__file__)"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.samefile(proc.stdout.strip(), entwedge.__file__)


# How the console script and perfbench start a run: main() on sys.argv
LAUNCH_MAIN = "from entwedge.cli import main; main()"
# one refusal per exit code, then argparse's usage error
REFUSALS = [
    pytest.param(1, ("measure", "--expr", "|0> +"), id="parse"),
    pytest.param(2, ("measure", "--expr", "|0,0> + |1,1>"), id="validation"),
    pytest.param(3, ("separability", "--expr", "|255,255>"), id="size"),
    pytest.param(2, ("measure", "--expr", BELL_EXPR, "--measure", "multipartite"), id="usage"),
]
# a (1, 2**16) product: its certificate makes a machine document of
# several MB, far past a pipe's buffer
BIG_DOCUMENT = ("separability", "--expr", "|0,65535>", "--output", "machine")


def in_process(capsys, argv):
    """``cli_main``'s exit code, stdout and stderr as bytes, with
    argparse's ``SystemExit`` read as its code."""
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def run_main(argv, **kwargs):
    kwargs.setdefault("stdout", subprocess.PIPE)
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCH_MAIN, *argv], stderr=subprocess.PIPE,
        env=child_env(), timeout=120, **kwargs,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestMain:
    @pytest.mark.parametrize("name, command", DEFAULT_OUTPUT_CASES)
    def test_default_outputs_match_cli_main(self, capsys, tmp_path, name, command):
        argv = (*DEFAULT_OUTPUT_COMMANDS[command], *default_source(tmp_path, name))
        assert run_main(argv) == in_process(capsys, argv)

    @pytest.mark.parametrize("code, argv", REFUSALS)
    def test_refusals_match_cli_main(self, capsys, code, argv):
        want = in_process(capsys, argv)
        assert want[0] == code
        assert run_main(argv) == want

    def test_large_document_arrives_whole(self, capsys):
        # nothing still buffered is lost at exit
        assert run_main(BIG_DOCUMENT) == in_process(capsys, BIG_DOCUMENT)

    @pytest.mark.parametrize("argv", [BIG_DOCUMENT, ("parse", "--expr", BELL_EXPR)],
                             ids=["machine", "parse"])
    def test_closed_stdout_exits_141_silently(self, argv):
        # the reader is gone before the first byte: 128 + SIGPIPE, and no
        # traceback, whether a write or the final flush meets the pipe
        read, write = os.pipe()
        os.close(read)
        try:
            code, _, err = run_main(argv, stdout=write)
        finally:
            os.close(write)
        assert (code, err) == (141, b"")

    def test_no_stdout_at_all(self):
        # started with descriptor 1 closed, print writes nothing, as in
        # cli_main, and nothing is left to flush
        start = "import os, subprocess, sys; os.close(1); sys.exit(subprocess.call(sys.argv[1:]))"
        launch = "import sys; assert sys.stdout is None; " + LAUNCH_MAIN
        proc = subprocess.run(
            [sys.executable, "-c", start, sys.executable, "-c", launch, "parse", "--expr", BELL_EXPR],
            stderr=subprocess.PIPE, env=child_env(), timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.parametrize("argv", [("measure", "--expr", BELL_EXPR), ("measure", "--expr", "|0>")])
    def test_raises_system_exit_in_process(self, capsys, monkeypatch, argv):
        want = in_process(capsys, argv)
        monkeypatch.setattr(sys, "argv", ["entwedge", *argv])
        try:
            with pytest.raises(SystemExit) as info:
                main()
            # the shutdown collection is skipped by freezing what exists
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        out, err = capsys.readouterr()
        assert (info.value.code, out.encode(), err.encode()) == want


class TestMemory:
    def test_text_output_builds_no_certificate_entries(self):
        # the certificate of |0,1048575> has 2**20 + 1 entries, and a JSON
        # object for each takes a run past 300 MB; the text output prints
        # none of them, so it builds none
        code = "\n".join([
            "from entwedge.cli import cli_main",
            "assert cli_main(['separability', '--expr', '|0,1048575>']) == 0",
            PRINT_PEAK_KB,
        ])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        *lines, peak = proc.stdout.splitlines()
        assert lines == [
            "threshold: 1e-10",
            "split {1}: residual=0.0 separable",
            "fully separable: yes",
            "genuinely entangled: no",
            "certificate reconstruction error: 0.0",
        ]
        assert int(peak) < 192 * 1024


# Atoms at the edges where short inputs once escaped as Python errors or
# bought unbounded work: literals at Python's 4300-digit limit, nesting
# at MAX_NESTING and past the interpreter's stack, radicands at the cap,
# indices at the 2**20 total, non-ASCII digits, zero divisors and long
# '/' chains.
LONG = "9" * 4300
HUGE = 10 ** 4300 - 1  # LONG's value, built without reading digits
INDEX_ATOMS = ["1048575", "1048576", "524287", "\u0663", LONG, LONG + "9", "0" * 4301]
SCALAR_ATOMS = [
    "0.6", "0.8", "i", "sqrt(1/2)", "sqrt(3/4)", "2", "0", "1/0", "sqrt(1/0)", "1/3/7",
    f"sqrt({2 ** 53})", f"sqrt({2 ** 53 + 1})", f"sqrt(1/{2 ** 53})",
    "0." + "7" * 4299, "7" * 4301, "0." + "7" * 4301, "1" + "0" * 400, "0." + "0" * 400 + "1",
    "/".join(["0." + "7" * 1200] * 100),
]
FLAG_VALUES = [
    "nan", "-nan", "inf", "-inf", "-0.0", "0", "1", "3", "1e308", "5e-324", "-1",
    "1000000000", str(2 ** 64 - 1), str(2 ** 64), LONG, LONG + "9",
]
COMMAND_FLAGS = {
    "measure": (),
    "separability": ("--threshold",),
    "invariance": ("--trials", "--seed"),
    "parse": (),
}

indices = st.one_of(st.integers(0, 3).map(str), st.sampled_from(INDEX_ATOMS))
kets = st.lists(indices, min_size=1, max_size=9).map(lambda xs: "|" + ",".join(xs) + ">")
expr_trees = st.recursive(
    st.one_of(kets, st.sampled_from(SCALAR_ATOMS)),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(" ".join),
        st.tuples(inner, st.sampled_from(["+", "-"]), inner).map(" ".join),
        inner.map("({})".format),
    ),
    max_leaves=8,
)
# nesting at the cap and one past it, and deep enough to exhaust the
# stack without it, whatever recursion limit hypothesis runs under
expressions = st.one_of(
    st.tuples(
        st.sampled_from(["", "-"]),
        st.sampled_from([0] * 5 + [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 10000]),
        expr_trees,
    ).map(lambda t: t[0] + "(" * t[1] + t[2] + ")" * t[1]),
    st.text(alphabet="|<>,()+-/. 0123456789isqrt\u0663", max_size=30),
)

# A valid state document, the paths a mutation may replace or delete, and
# what it may put there: JSON's NaN and infinities, -0.0, integers past
# the float range and at the digit limit, and values of the wrong type.
STATE_DOC = {
    "dims": [2, 2],
    "amplitudes": [{"idx": [0, 0], "re": 0.6, "im": 0.0}, {"idx": [1, 1], "re": 0.0, "im": 0.8}],
}
DOC_PATHS = [
    ("dims",), ("dims", 0), ("dims", 1), ("amplitudes",), ("amplitudes", 0),
    ("amplitudes", 0, "idx"), ("amplitudes", 0, "idx", 1), ("amplitudes", 1, "re"),
    ("amplitudes", 1, "im"), ("extra",),
]
DELETE = object()
DOC_VALUES = [
    DELETE, math.nan, math.inf, -math.inf, -0.0, 0, 1, 2, 1e308, 10 ** 400, HUGE, -1,
    2 ** 20, True, None, "2", [], {}, [HUGE, HUGE], [2] * 9,
]


def mutated(doc, path, value):
    """Put a copy of ``value`` at ``path`` in ``doc``, or delete what is
    there; a path an earlier mutation cut off is left alone."""
    *parents, last = path
    try:
        for key in parents:
            doc = doc[key]
        if value is DELETE:
            del doc[last]
        else:
            doc[last] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass


@st.composite
def state_files(draw):
    doc = copy.deepcopy(STATE_DOC)
    for path, value in draw(st.lists(st.tuples(st.sampled_from(DOC_PATHS),
                                               st.sampled_from(DOC_VALUES)), max_size=3)):
        mutated(doc, path, value)
    data = json.dumps(doc).encode()
    return data[:draw(st.integers(0, len(data)))] if draw(st.integers(0, 3)) == 0 else data


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv, state = [command], None
    if command != "parse" and draw(st.booleans()):
        state = draw(st.one_of(state_files(), st.sampled_from(sorted(HOSTILE_STATE_FILES.values()))))
    else:
        # joined to its flag, so an expression may start with '-'
        argv.append("--expr=" + draw(expressions))
    for flag in COMMAND_FLAGS[command]:
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(FLAG_VALUES))}")
    if command != "parse" and draw(st.booleans()):
        argv.append("--output=machine")
    return argv, state


class TestInputEdge:
    @settings(
        max_examples=300, derandomize=True, deadline=None, database=None,
        # the digit limit holds for the whole run, so no example resets it
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                               HealthCheck.function_scoped_fixture],
    )
    @given(case=argvs())
    # one past refusal each, whatever the generator reaches: nesting past
    # the stack, a literal past the digit limit, dims whose product has
    # more digits than Python prints, from a ket and from a state file
    @example(case=(["parse", "--expr=" + "(" * 10000 + "|0>" + ")" * 10000], None))
    @example(case=(["parse", f"--expr=|{LONG}9>"], None))
    @example(case=(["measure", f"--expr=|{LONG},{LONG}>"], None))
    @example(case=(["measure"], f'{{"dims": [{LONG}, {LONG}], "amplitudes": []}}'.encode()))
    def test_every_input_exits_with_its_code(self, tmp_path_factory, int_digit_limit, case):
        # every input either runs or is refused with its error class's
        # code and one error: line, in bounded time; only argparse's
        # usage error leaves cli_main as an exception
        argv, state = case
        if state is not None:
            path = tmp_path_factory.getbasetemp() / "edge-state.json"
            path.write_bytes(state)
            argv = [*argv, f"--state={path}"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and out.getvalue() == "", argv
            code = None
        # the costliest input the grammar can write, a 2**20-entry
        # certificate as machine output, takes about 5 s
        assert time.perf_counter() - start < 10.0, argv
        if code is None:
            assert "usage: entwedge" in err.getvalue()
        elif code == 0:
            assert err.getvalue() == "" and out.getvalue().endswith("\n"), argv
        else:
            assert code in (1, 2, 3) and out.getvalue() == "", argv
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
