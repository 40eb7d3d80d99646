"""Haar sampling, local rotations, and the invariance experiment."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwedge import (
    InvarianceRun,
    PureState,
    UnitaryGate,
    apply_local,
    bipartite_concurrence,
    haar_unitary,
    invariance_experiment,
    normalize,
    partial_trace,
    purity,
    resolve_measure,
    standard_normals,
    trial_rng,
)
from entwedge import lu
from entwedge.errors import (
    DimensionMismatchError,
    NotNormalizedError,
    TooLargeError,
    ValidationError,
)
from conftest import bell_state, ghz_state, random_state


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
            assert abs(abs(gate.entries[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_unitary_within_tolerance(self, dim):
        for trial in range(10):
            gate = haar_unitary(dim, trial_rng(1, trial, (dim,)))
            defect = np.max(
                np.abs(gate.entries.conj().T @ gate.entries - np.eye(dim))
            )
            assert defect <= 1e-10

    def test_deterministic(self):
        a = haar_unitary(3, trial_rng(9, 4, (3,)))
        b = haar_unitary(3, trial_rng(9, 4, (3,)))
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_corner_moment(self):
        # E |U_00|^2 = 1/dim under Haar; dim 2 gives 1/2
        total = 0.0
        samples = 4000
        for trial in range(samples):
            gate = haar_unitary(2, trial_rng(42, trial, (2,)))
            total += abs(gate.entries[0, 0]) ** 2
        assert total / samples == pytest.approx(0.5, abs=0.02)

    def test_bad_dim(self):
        with pytest.raises(DimensionMismatchError):
            haar_unitary(0, trial_rng(0, 0, (1,)))

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
            np.testing.assert_allclose(gate.entries, q, rtol=0, atol=1e-12)


class TestUnitaryGate:
    def test_accepts_identity_and_phase(self):
        UnitaryGate(3, np.eye(3))
        UnitaryGate(1, np.array([[1j]]))

    def test_rejects_nonunitary(self):
        with pytest.raises(ValidationError):
            UnitaryGate(2, 2.0 * np.eye(2))
        with pytest.raises(ValidationError):
            UnitaryGate(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            UnitaryGate(2, np.eye(3))

    def test_entries_read_only(self):
        gate = UnitaryGate(2, np.eye(2))
        with pytest.raises(ValueError):
            gate.entries[0, 0] = 0.0


class TestApplyLocal:
    def test_identity_gates_do_nothing(self):
        state = ghz_state(3)
        gates = [UnitaryGate(2, np.eye(2))] * 3
        rotated = apply_local(state, gates)
        np.testing.assert_array_equal(rotated.amplitudes, state.amplitudes)

    def test_norm_preserved(self, rng):
        state = random_state(rng, (2, 3, 2))
        rng_0 = trial_rng(5, 0, state.dims)
        gates = [haar_unitary(n, rng_0) for n in state.dims]
        rotated = apply_local(state, gates)
        assert abs(rotated.norm() - 1.0) <= 1e-10

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
        gates = [haar_unitary(2, trial_rng(8, 0, (2, 2))), UnitaryGate(2, np.eye(2))]
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
            tensor = np.moveaxis(np.tensordot(gate.entries, tensor, axes=([1], [j])), 0, j)
        rotated = apply_local(state, gates)
        np.testing.assert_allclose(rotated.amplitudes, tensor.reshape(-1), rtol=0, atol=1e-14)

    def test_gate_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_local(bell_state(), [UnitaryGate(2, np.eye(2))])

    def test_gate_dim_mismatch(self):
        gates = [UnitaryGate(2, np.eye(2)), UnitaryGate(3, np.eye(3))]
        with pytest.raises(DimensionMismatchError):
            apply_local(bell_state(), gates)


class TestTrialRng:
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

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (2**64, 0), (0, -1)])
    def test_out_of_range_refused(self, seed, trial):
        # a negative trial would wrap to the end of the PCG64 period
        with pytest.raises(ValidationError):
            trial_rng(seed, trial, (2,))


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

    def test_deviation_cap(self, monkeypatch):
        full = invariance_experiment(bell_state(), trials=6, seed=1)
        monkeypatch.setattr(lu, "PER_TRIAL_CAP", 5)
        run = invariance_experiment(bell_state(), trials=6, seed=1)
        assert run.deviations is None
        assert run.max_abs_deviation <= 1e-9
        # above the cap only the running max is kept; it is the same max
        assert run == dataclasses.replace(full, deviations=None)

    def test_forced_multipartite_on_two_subsystems(self):
        run = invariance_experiment(
            bell_state(), trials=5, seed=2, measure="multipartite"
        )
        assert run.measure_kind == "multipartite_e"
        assert run.baseline_value == pytest.approx(2.0, abs=1e-12)
        assert run.max_abs_deviation <= 1e-9

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            invariance_experiment(bell_state(), trials=-1)
        with pytest.raises(ValidationError):
            invariance_experiment(bell_state(), seed=-5)
        with pytest.raises(ValidationError):
            invariance_experiment(bell_state(), seed=2**64)


def chunk_budget(state, trials_per_chunk):
    """CHUNK_AMPLITUDES value giving chunks of exactly this many trials."""
    per_trial = state.total_dim + sum(n * n for n in state.dims)
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
        # trial k is haar_unitary per slot from trial k's words, then
        # apply_local and the measure, bit for bit
        state = random_state(rng, dims)
        run = invariance_experiment(state, trials=12, seed=8)
        fn = resolve_measure("auto", state.num_subsystems)
        baseline = fn(state).value
        for k, deviation in enumerate(run.deviations):
            rng_k = trial_rng(8, k, dims)
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

        def skewed(normals, dim):
            stack = real_stack(normals, dim)
            stack[-1] *= 1.0 + 1e-6  # one gate in the chunk is off
            return stack

        monkeypatch.setattr(lu, "_haar_stack", skewed)
        with pytest.raises(ValidationError, match="deviates from unitary"):
            invariance_experiment(ghz_state(3), trials=5, seed=0)

    def test_oversized_state_is_refused_before_any_trial(self):
        state = PureState((65, 64), np.zeros(65 * 64, dtype=np.complex128))
        with pytest.raises(TooLargeError):
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
        assert [slot.shape for slot in normals] == [(count, 2 * n * n) for n in dims]
        words = sum(2 * n * n for n in dims)
        for t in range(count):
            bits = np.random.PCG64(np.random.SeedSequence(seed))
            bits.advance((lo + t) * words)
            rng = np.random.Generator(bits)
            for slot, n in zip(normals, dims):
                np.testing.assert_array_equal(slot[t], standard_normals(rng, 2 * n * n))


class TestStackNormCheck:
    def test_scaled_trial_is_refused(self, monkeypatch):
        real_rotate = lu._rotate

        def scaled(amps, dims, stacks):
            rotated = real_rotate(amps, dims, stacks)
            rotated[2] *= 1.0 + 1e-6  # trials 2 and 3 of the chunk leave the sphere
            rotated[3] *= 2.0
            return rotated

        monkeypatch.setattr(lu, "_rotate", scaled)
        with pytest.raises(NotNormalizedError) as info:
            invariance_experiment(ghz_state(3), trials=5, seed=0)
        # the first failing trial is the one reported
        assert info.value.norm == pytest.approx(1.0 + 1e-6, rel=1e-12)
        assert info.value.tol == lu.DEFAULT_CONFIG.tol


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


# (dims, seed, measure, trials) -> baseline_value, then per platform
# fingerprint: deviations, max_abs_deviation.  Recorded with one random
# stream per experiment, on x86-64 with numpy 2.4 and its bundled OpenBLAS
# 0.3.31: "70d3..." with the AVX-512 (SkylakeX) kernels, "f00e..." with
# the Haswell/Zen ones.
GOLDEN = [
    (((2, 3), 7, "auto", 6), "0x1.1b7da6e39dc63p-1", {
        "70d30828638ee746": (
            ["0x0.0p+0", "-0x1.0000000000000p-52", "-0x1.0000000000000p-53",
             "-0x1.0000000000000p-53", "0x1.0000000000000p-52", "0x0.0p+0"],
            "0x1.0000000000000p-52"),
        "f00eac3ca9446df2": (
            ["0x0.0p+0", "-0x1.0000000000000p-51", "-0x1.0000000000000p-52",
             "-0x1.8000000000000p-52", "-0x1.0000000000000p-53", "-0x1.0000000000000p-53"],
            "0x1.0000000000000p-51"),
    }),
    (((2, 2, 2), 2**64 - 1, "auto", 5), "0x1.2925937802c27p+0", {
        "70d30828638ee746": (
            ["0x1.0000000000000p-50", "0x1.0000000000000p-52", "0x1.0000000000000p-51",
             "-0x1.0000000000000p-51", "0x1.0000000000000p-52"],
            "0x1.0000000000000p-50"),
        "f00eac3ca9446df2": (
            ["0x1.8000000000000p-51", "0x0.0p+0", "0x1.0000000000000p-51",
             "-0x1.0000000000000p-52", "0x1.0000000000000p-51"],
            "0x1.8000000000000p-51"),
    }),
    (((1, 3, 2), 2**63 + 5, "multipartite", 4), "0x1.cb8070f59d8bcp-1", {
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
        dims, seed, measure, trials = case
        run = invariance_experiment(golden_state(dims), trials=trials, seed=seed, measure=measure)
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
