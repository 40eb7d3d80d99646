"""Haar sampling, local rotations, and the invariance experiment."""

from __future__ import annotations

import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwedge import (
    InvarianceRun,
    PureState,
    bipartite_concurrence,
    invariance_experiment,
    multipartite_measure,
    normalize,
)
from entwedge import lu, save_state, states
from entwedge.cli import cli_main
from entwedge.errors import NotNormalizedError, TooLargeError, ValidationError
from conftest import PRINT_PEAK_KB, bell_state, child_env, ghz_state, random_state
from oracles import (
    apply_local,
    haar_unitary,
    partial_trace,
    purity,
    standard_normals,
    trial_rng,
)


class TestStandardNormals:
    def test_moments(self):
        rng = trial_rng(7, 0, (2,))
        x = standard_normals(rng, 200000)
        assert abs(float(np.mean(x))) < 0.02
        assert abs(float(np.var(x)) - 1.0) < 0.02

    def test_odd_count(self):
        rng = trial_rng(7, 1, (2,))
        assert standard_normals(rng, 7).shape == (7,)

    def test_deterministic(self):
        a = standard_normals(trial_rng(3, 5, (2,)), 16)
        b = standard_normals(trial_rng(3, 5, (2,)), 16)
        np.testing.assert_array_equal(a, b)

    def test_all_finite(self):
        # log1p(-u) keeps the radius finite even if u comes out 0
        x = standard_normals(trial_rng(11, 2, (2,)), 100000)
        assert np.all(np.isfinite(x))


class TestHaarUnitary:
    def test_dim_one_is_a_phase(self):
        for trial in range(20):
            gate = haar_unitary(1, trial_rng(0, trial, (1,)))
            assert abs(abs(gate[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_unitary_within_tolerance(self, dim):
        for trial in range(10):
            gate = haar_unitary(dim, trial_rng(1, trial, (dim,)))
            defect = np.max(np.abs(gate.conj().T @ gate - np.eye(dim)))
            assert defect <= 1e-10

    def test_deterministic(self):
        a = haar_unitary(3, trial_rng(9, 4, (3,)))
        b = haar_unitary(3, trial_rng(9, 4, (3,)))
        np.testing.assert_array_equal(a, b)

    def test_corner_moment(self):
        # E |U_00|^2 = 1/dim under Haar; dim 2 gives 1/2
        total = 0.0
        samples = 4000
        for trial in range(samples):
            gate = haar_unitary(2, trial_rng(42, trial, (2,)))
            total += abs(gate[0, 0]) ** 2
        assert total / samples == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 64])
    def test_matches_column_loop_reference(self, dim):
        # textbook modified Gram-Schmidt, one column at a time, on the
        # same draws; summation order differs, so agree to rounding
        for trial in range(5):
            flat = standard_normals(trial_rng(13, trial, (dim,)), 2 * dim * dim)
            q = (flat[: dim * dim] + 1j * flat[dim * dim:]).reshape(dim, dim)
            for k in range(dim):
                for i in range(k):
                    q[:, k] -= np.vdot(q[:, i], q[:, k]) * q[:, i]
                q[:, k] /= np.linalg.norm(q[:, k])
            gate = haar_unitary(dim, trial_rng(13, trial, (dim,)))
            np.testing.assert_allclose(gate, q, rtol=0, atol=1e-12)


class TestUnitaryGate:
    # the check every chunk's gate stacks pass before they rotate a state
    def test_accepts_identity_and_phase(self):
        lu._check_unitary(np.eye(3)[None])
        lu._check_unitary(np.array([[[1j]]]))

    def test_rejects_nonunitary(self):
        with pytest.raises(ValidationError):
            lu._check_unitary(2.0 * np.eye(2)[None])
        with pytest.raises(ValidationError):
            lu._check_unitary(np.array([[[1.0, 1.0], [0.0, 1.0]]]))
        with pytest.raises(ValidationError):
            lu._check_unitary(np.full((1, 2, 2), np.nan))


class TestApplyLocal:
    def test_identity_gates_do_nothing(self):
        state = ghz_state(3)
        gates = [np.eye(2)] * 3
        rotated = apply_local(state, gates)
        np.testing.assert_array_equal(rotated.amplitudes, state.amplitudes)

    def test_norm_preserved(self, rng):
        state = random_state(rng, (2, 3, 2))
        rng_0 = trial_rng(5, 0, state.dims)
        gates = [haar_unitary(n, rng_0) for n in state.dims]
        rotated = apply_local(state, gates)
        assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) <= 1e-10

    def test_marginal_purity_preserved(self, rng):
        state = random_state(rng, (2, 2, 3))
        rng_0 = trial_rng(6, 0, state.dims)
        gates = [haar_unitary(n, rng_0) for n in state.dims]
        rotated = apply_local(state, gates)
        for j in (1, 2, 3):
            before = purity(partial_trace(state, j))
            after = purity(partial_trace(rotated, j))
            assert after == pytest.approx(before, abs=1e-9)

    def test_single_subsystem_rotation(self, rng):
        # acting on one slot only, with identities elsewhere
        state = random_state(rng, (2, 2))
        gates = [haar_unitary(2, trial_rng(8, 0, (2, 2))), np.eye(2)]
        rotated = apply_local(state, gates)
        c0 = bipartite_concurrence(state).value
        c1 = bipartite_concurrence(normalize(rotated)).value
        assert c1 == pytest.approx(c0, abs=1e-10)

    def test_matches_tensordot_reference(self, rng):
        state = random_state(rng, (2, 3, 1, 4))
        rng_0 = trial_rng(12, 0, state.dims)
        gates = [haar_unitary(n, rng_0) for n in state.dims]
        tensor = state.tensor
        for j, gate in enumerate(gates):
            tensor = np.moveaxis(np.tensordot(gate, tensor, axes=([1], [j])), 0, j)
        rotated = apply_local(state, gates)
        np.testing.assert_allclose(rotated.amplitudes, tensor.reshape(-1), rtol=0, atol=1e-14)


class TestTrialRng:
    # the oracle's trial k: the experiment's stream advanced k trials
    def test_reconstructible_substreams(self):
        for trial in (0, 1, 17):
            a = trial_rng(123, trial, (2, 3)).random(4)
            b = trial_rng(123, trial, (2, 3)).random(4)
            np.testing.assert_array_equal(a, b)

    def test_trials_are_distinct(self):
        draws = [tuple(trial_rng(123, t, (2,)).random(2)) for t in range(6)]
        assert len(set(draws)) == len(draws)

    def test_seeds_are_distinct(self):
        a = trial_rng(1, 0, (2,)).random(4)
        b = trial_rng(2, 0, (2,)).random(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, trials", [(-1, 0), (2**64, 0), (-5, 1000), (2**64, 1000)])
    def test_out_of_range_refused(self, seed, trials):
        # SeedSequence takes any nonnegative integer; the contract is 64 bits
        with pytest.raises(ValidationError, match="seed"):
            invariance_experiment(bell_state(), trials=trials, seed=seed)

    def test_bad_seed_is_named_before_the_price(self):
        # over the invariance guard and unnormalized, yet the seed is named
        state = PureState((64, 64), np.zeros(64 * 64, dtype=np.complex128))
        with pytest.raises(ValidationError, match=r"seed < 2\*\*64, got -1$"):
            invariance_experiment(state, seed=-1)


def edge_state() -> PureState:
    """A (2, 2, 2) state as far off the unit sphere as ``validate``
    accepts: a unit state scaled by the largest factor in [1, 1 + 1e-9]
    that passes, found by bisection."""
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec = vec / np.linalg.norm(vec)
    lo, hi = 1.0, 1.0 + 1e-9
    for _ in range(200):
        mid = (lo + hi) / 2
        try:
            states.validate(PureState((2, 2, 2), mid * vec))
            lo = mid
        except NotNormalizedError:
            hi = mid
    return PureState((2, 2, 2), lo * vec)


class TestInvarianceExperiment:
    def test_bell_invariant(self):
        run = invariance_experiment(bell_state(), trials=50, seed=3)
        assert isinstance(run, InvarianceRun)
        assert run.measure_kind == "bipartite_concurrence"
        assert run.baseline_value == pytest.approx(1.0, abs=1e-12)
        assert run.max_abs_deviation <= 1e-9
        assert len(run.deviations) == 50

    def test_ghz3_invariant(self):
        run = invariance_experiment(ghz_state(3), trials=30, seed=4)
        assert run.measure_kind == "multipartite_e"
        assert run.max_abs_deviation <= 1e-9

    def test_random_state_invariant(self, rng):
        state = random_state(rng, (2, 3))
        run = invariance_experiment(state, trials=20, seed=5)
        assert run.max_abs_deviation <= 1e-9

    def test_bitwise_deterministic(self):
        a = invariance_experiment(ghz_state(3), trials=12, seed=99)
        b = invariance_experiment(ghz_state(3), trials=12, seed=99)
        assert a == b

    def test_prefix_property(self):
        # trial k reads the same words whatever the total trial count
        short = invariance_experiment(bell_state(), trials=6, seed=7)
        long = invariance_experiment(bell_state(), trials=10, seed=7)
        assert short.deviations == long.deviations[:6]

    def test_zero_trials(self):
        run = invariance_experiment(bell_state(), trials=0)
        assert run.max_abs_deviation == 0.0
        assert run.deviations == ()

    @pytest.mark.parametrize("per_chunk", [100, 1])
    def test_nan_deviation_reaches_the_max(self, monkeypatch, per_chunk):
        # a NaN term sum at trial 3 (in the first chunk, or in a later one
        # when chunks hold one trial) makes the maximum NaN
        real = lu.measure_rows
        done = []

        def nan_at_three(kind, rows, dims):
            sums = real(kind, rows, dims)
            start = sum(done)
            done.append(len(sums))
            if start <= 3 < start + len(sums):
                sums[3 - start] = math.nan
            return sums

        monkeypatch.setattr(lu, "measure_rows", nan_at_three)
        monkeypatch.setattr(lu, "CHUNK_AMPLITUDES", chunk_budget(bell_state(), per_chunk))
        run = invariance_experiment(bell_state(), trials=6, seed=1)
        assert math.isnan(run.max_abs_deviation)
        assert [math.isnan(d) for d in run.deviations] == [k == 3 for k in range(6)]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2)])
    def test_validates_state_once(self, monkeypatch, rng, dims):
        # the baseline measure checks the state; the experiment does not
        # check it again.  Every entwedge namespace holding validate is
        # patched, so a call through any of them is counted.
        calls = []
        real = states.validate

        def counted(state):
            calls.append(state)
            return real(state)

        for name, module in list(sys.modules.items()):
            if name.startswith("entwedge") and getattr(module, "validate", None) is real:
                monkeypatch.setattr(module, "validate", counted)
        state = random_state(rng, dims)
        run = invariance_experiment(state, trials=5, seed=2)
        assert len(run.deviations) == 5
        assert calls == [state]

    def test_edge_state_runs_through_every_command(self, tmp_path):
        # a state validate accepts is accepted by the whole experiment and
        # by every command, even at the edge of the norm tolerance
        state = edge_state()
        assert abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0) > 0.99e-9
        run = invariance_experiment(state, trials=1000, seed=0)
        assert len(run.deviations) == 1000
        assert run.max_abs_deviation <= 1e-12
        path = str(tmp_path / "edge.json")
        save_state(state, path)
        for command in ("measure", "separability", "invariance"):
            assert cli_main([command, "--state", path]) == 0

    def test_work_guard_fires_before_validation_and_draws(self, monkeypatch):
        made = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        # unnormalized on purpose: the guard fires before validation
        for dims, trials in (((64, 64), 1000), ((2, 2), 10 ** 9), ((1, 4096), 1)):
            state = PureState(dims, np.zeros(math.prod(dims), dtype=np.complex128))
            with pytest.raises(TooLargeError, match="the invariance guard"):
                invariance_experiment(state, trials=trials)
        assert made == []

    def test_work_guard_boundary(self, monkeypatch):
        monkeypatch.setattr(lu, "MAX_INVARIANCE_WORK", 10 * lu._trial_work((2, 2)))
        assert len(invariance_experiment(bell_state(), trials=10).deviations) == 10
        with pytest.raises(TooLargeError):
            invariance_experiment(bell_state(), trials=11)

    def test_longest_run_returns_every_deviation(self):
        # the price bounds the list: (1, 1) allows the most trials of any
        # dims, and a run of that many still returns each deviation
        state = PureState((1, 1), [1.0])
        trials = lu.MAX_INVARIANCE_WORK // lu._trial_work((1, 1))
        run = invariance_experiment(state, trials=trials)
        assert len(run.deviations) == trials
        assert run.max_abs_deviation == max(map(abs, run.deviations))
        with pytest.raises(TooLargeError, match=f"allows at most {trials} trials"):
            invariance_experiment(state, trials=trials + 1)

    def test_trial_work(self):
        floor = lu._TRIAL_FLOOR
        # one split on two subsystems: its row pairs times columns squared
        assert lu._trial_work((2, 2)) == floor + 2 * 2 ** 3 + 1 * 2 ** 2
        assert lu._trial_work((64, 64)) == floor + 2 * 64 ** 3 + 2016 * 64 ** 2
        # every singleton split otherwise, paired along its shorter side
        assert lu._trial_work((2, 3, 4)) == floor + 99 + 1 * 12 ** 2 + 3 * 8 ** 2 + 6 * 6 ** 2
        # a gate costs its cube even where the re-measure pairs nothing
        assert lu._trial_work((1, 512)) == floor + 1 + 512 ** 3

    @pytest.mark.parametrize("dims, trials", [
        ((2, 2), 1000), ((2, 2, 2), 1000),  # README
        ((2, 3, 4), 100), ((2, 2, 2, 2), 100),  # the benchmark's invariance runs
    ])
    def test_documented_runs_are_accepted(self, dims, trials):
        assert trials * lu._trial_work(dims) <= lu.MAX_INVARIANCE_WORK

    def test_bad_arguments(self):
        # bad seeds are TestTrialRng::test_out_of_range_refused's inputs
        with pytest.raises(ValidationError):
            invariance_experiment(bell_state(), trials=-1)


class TestMemory:
    def test_largest_gate_stays_small(self):
        # a chunk holds at least one trial, so one trial's gate bounds its
        # memory; the invariance budget allows no gate past n = 584
        assert lu._trial_work((1, 585)) > lu.MAX_INVARIANCE_WORK >= lu._trial_work((1, 584))
        code = "\n".join([
            "import numpy as np",
            "from entwedge import PureState, invariance_experiment",
            "amps = np.zeros(584, dtype=np.complex128)",
            "amps[0] = 1.0",
            "assert invariance_experiment(PureState((1, 584), amps), trials=1).trials == 1",
            PRINT_PEAK_KB,
        ])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 128 * 1024


def chunk_budget(state, trials_per_chunk):
    """CHUNK_AMPLITUDES value giving chunks of exactly this many trials."""
    per_trial = state.amplitudes.size + sum(n * n for n in state.dims)
    return trials_per_chunk * per_trial


class TestBatchedTrials:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (1, 3), (3, 1, 2)])
    def test_chunking_does_not_change_deviations(self, monkeypatch, rng, dims):
        state = random_state(rng, dims)
        trials = 23
        runs = []
        for per_chunk in (1, 7, trials + 5):
            monkeypatch.setattr(lu, "CHUNK_AMPLITUDES", chunk_budget(state, per_chunk))
            assert lu._chunk_trials(dims) == per_chunk
            runs.append(invariance_experiment(state, trials=trials, seed=31))
        assert runs[0] == runs[1] == runs[2]
        assert len(runs[0].deviations) == trials

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (1, 3)])
    def test_trial_matches_public_single_trial_path(self, rng, dims):
        # trial k is the oracle's haar_unitary per slot from trial k's
        # words, then its apply_local and the public measure, bit for bit
        state = random_state(rng, dims)
        fn = bipartite_concurrence if len(dims) == 2 else multipartite_measure
        baseline = fn(state).value
        for seed in (8, 2**64 - 1):
            run = invariance_experiment(state, trials=12, seed=seed)
            for k, deviation in enumerate(run.deviations):
                rng_k = trial_rng(seed, k, dims)
                gates = [haar_unitary(n, rng_k) for n in dims]
                assert fn(apply_local(state, gates)).value - baseline == deviation

    @pytest.mark.parametrize("per_chunk", [100, 7])
    def test_one_seed_sequence_per_experiment(self, monkeypatch, per_chunk):
        # seeding once per trial cost more than the rest of a small trial
        state = bell_state()
        monkeypatch.setattr(lu, "CHUNK_AMPLITUDES", chunk_budget(state, per_chunk))
        made = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        run = invariance_experiment(state, trials=100, seed=5)
        assert len(run.deviations) == 100
        assert made == [(5,)]

    def test_dim_one_slot(self):
        # a dim-1 slot rotates by a phase and leaves the measure alone
        vec = np.array([1, 0, 0, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
        state = PureState((2, 1, 3), vec)
        run = invariance_experiment(state, trials=20, seed=4)
        assert len(run.deviations) == 20
        assert run.max_abs_deviation <= 1e-9

    def test_non_unitary_stack_is_refused(self, monkeypatch):
        real_stack = lu._haar_stack

        def skewed(z):
            stack = real_stack(z)
            stack[-1] *= 1.0 + 1e-6  # one gate in the chunk is off
            return stack

        monkeypatch.setattr(lu, "_haar_stack", skewed)
        with pytest.raises(ValidationError, match="deviates from unitary"):
            invariance_experiment(ghz_state(3), trials=5, seed=0)

    def test_oversized_state_is_refused_before_any_trial(self):
        state = PureState((256, 256), np.zeros(256 * 256, dtype=np.complex128))
        with pytest.raises(TooLargeError, match="exceeds the measure guard"):
            invariance_experiment(state, trials=5)


class TestChunkDraws:
    def test_uniform_doubles_are_shifted_raw_words(self):
        # the chunk path turns raw PCG64 words into uniforms itself; if
        # numpy ever changes Generator.random on PCG64, this fails first
        for seed in (0, 5, 2**64 - 1):
            expected = np.random.Generator(np.random.PCG64(seed)).random(1000)
            raw = np.random.PCG64(seed).random_raw(1000)
            np.testing.assert_array_equal((raw >> np.uint64(11)) * 2.0**-53, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
        seed=st.integers(0, 2**64 - 1),
        lo=st.integers(0, 10**6),
        count=st.integers(1, 4),
    )
    def test_rows_match_per_trial_draws(self, dims, seed, lo, count):
        normals = lu._chunk_normals(trial_rng(seed, lo, dims).bit_generator, count, dims)
        assert [slot.shape for slot in normals] == [(count, n, n) for n in dims]
        words = sum(2 * n * n for n in dims)
        for t in range(count):
            bits = np.random.PCG64(np.random.SeedSequence(seed))
            bits.advance((lo + t) * words)
            rng = np.random.Generator(bits)
            for slot, n in zip(normals, dims):
                flat = np.concatenate([slot[t].real.ravel(), slot[t].imag.ravel()])
                np.testing.assert_array_equal(flat, standard_normals(rng, 2 * n * n))


class TestRotatedDrift:
    def test_scaled_trials_are_reported(self, monkeypatch):
        # no norm check follows the rotation: trials scaled off the unit
        # sphere are re-measured, and the drift shows in their deviations
        real_rotate = lu._rotate

        def scaled(amps, dims, stacks):
            rotated = real_rotate(amps, dims, stacks)
            rotated[2] *= 1.0 + 1e-6
            rotated[3] *= 2.0
            return rotated

        monkeypatch.setattr(lu, "_rotate", scaled)
        run = invariance_experiment(ghz_state(3), trials=5, seed=0)
        v = run.baseline_value
        # the measure scales with the square of the amplitudes
        assert abs(run.deviations[2] - v * ((1.0 + 1e-6) ** 2 - 1.0)) <= 1e-12
        assert abs(run.deviations[3] - 3.0 * v) <= 1e-12
        assert all(abs(run.deviations[k]) <= 1e-12 for k in (0, 1, 4))


def golden_state(dims):
    k = np.arange(math.prod(dims))
    vec = (k + 1) + 1j * ((k * 7) % 5 - 2)
    return PureState(dims, vec / np.linalg.norm(vec))


def numerics_fingerprint():
    """Hash of the libm, LAPACK QR and BLAS matmul results on fixed inputs
    that do not come from entwedge.  The deviations' last bits follow
    these, so it names the platform the golden deviations hold on."""
    parts = []
    for n in (2, 3, 4):
        u = (np.arange(1, 4 * n * n + 1) * 0.6180339887498949) % 1.0
        sq = 2 * n * n
        radius = np.sqrt(-2.0 * np.log1p(-u[:sq]))
        angle = 2.0 * math.pi * u[sq:]
        z = (radius * np.cos(angle) + 1j * radius * np.sin(angle)).reshape(2, n, n)
        q, r = np.linalg.qr(z)
        parts += [q, r, np.matmul(q[:, None], z.reshape(2, 1, n, n))]
    return hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()[:16]


# (dims, seed, trials) -> baseline_value, then per platform
# fingerprint: deviations, max_abs_deviation.  Recorded with one random
# stream per experiment, on x86-64 with numpy 2.4 and its bundled OpenBLAS
# 0.3.31: "70d3..." with the AVX-512 (SkylakeX) kernels, "f00e..." with
# the Haswell/Zen ones.
GOLDEN = [
    (((2, 3), 7, 6), "0x1.1b7da6e39dc63p-1", {
        "70d30828638ee746": (
            ["0x0.0p+0", "-0x1.0000000000000p-52", "-0x1.0000000000000p-53",
             "-0x1.0000000000000p-53", "0x1.0000000000000p-52", "0x0.0p+0"],
            "0x1.0000000000000p-52"),
        "f00eac3ca9446df2": (
            ["0x0.0p+0", "-0x1.0000000000000p-51", "-0x1.0000000000000p-52",
             "-0x1.8000000000000p-52", "-0x1.0000000000000p-53", "-0x1.0000000000000p-53"],
            "0x1.0000000000000p-51"),
    }),
    (((2, 2, 2), 2**64 - 1, 5), "0x1.2925937802c27p+0", {
        "70d30828638ee746": (
            ["0x1.0000000000000p-50", "0x1.0000000000000p-52", "0x1.0000000000000p-51",
             "-0x1.0000000000000p-51", "0x1.0000000000000p-52"],
            "0x1.0000000000000p-50"),
        "f00eac3ca9446df2": (
            ["0x1.8000000000000p-51", "0x0.0p+0", "0x1.0000000000000p-51",
             "-0x1.0000000000000p-52", "0x1.0000000000000p-51"],
            "0x1.8000000000000p-51"),
    }),
    (((1, 3, 2), 2**63 + 5, 4), "0x1.cb8070f59d8bcp-1", {
        "70d30828638ee746": (
            ["-0x1.4000000000000p-51", "-0x1.0000000000000p-53", "0x1.0000000000000p-52",
             "-0x1.0000000000000p-51"],
            "0x1.4000000000000p-51"),
        "f00eac3ca9446df2": (
            ["-0x1.0000000000000p-52", "-0x1.0000000000000p-52", "-0x1.0000000000000p-52",
             "-0x1.8000000000000p-51"],
            "0x1.8000000000000p-51"),
    }),
]


class TestGoldenRuns:
    @pytest.mark.parametrize("case, baseline, per_platform", GOLDEN)
    def test_matches_recorded_run(self, case, baseline, per_platform):
        dims, seed, trials = case
        run = invariance_experiment(golden_state(dims), trials=trials, seed=seed)
        # the baseline runs no QR, matmul or libm call, so it holds to
        # rounding everywhere and bitwise on the recording platforms
        assert run.baseline_value == pytest.approx(float.fromhex(baseline), rel=1e-15, abs=0)
        recorded = per_platform.get(numerics_fingerprint())
        if recorded is None:
            pytest.skip("libm, LAPACK or BLAS here round differently from the recording platforms")
        deviations, max_abs = recorded
        assert run.baseline_value.hex() == baseline
        assert [d.hex() for d in run.deviations] == deviations
        assert run.max_abs_deviation.hex() == max_abs
