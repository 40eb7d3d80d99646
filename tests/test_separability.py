"""Residuals, verdicts, and product certificates across bipartitions."""

from __future__ import annotations

import dataclasses
import json
import math
from functools import reduce

import numpy as np
import pytest

from entwedge import (
    Bipartition,
    PureState,
    is_product_state,
    matricize,
    multipartite_measure,
    normalize,
    partial_trace,
    partition_residual,
    purity,
    separability_report,
)
from entwedge.errors import (
    InvalidPartitionError,
    NotNormalizedError,
    TooLargeError,
    ValidationError,
)
from entwedge import separability
from entwedge.separability import CERTIFICATE_TOL
from conftest import (
    bell_state,
    bell_x_bell_state,
    bell_x_zero_state,
    ghz_state,
    random_product_state,
    random_state,
    w3_state,
)


def svd_residual(state: PureState, part: Bipartition) -> float:
    """Independent route: 1 - sum of fourth powers of singular values."""
    sigma = np.linalg.svd(matricize(state, part), compute_uv=False)
    return 1.0 - float(np.sum(sigma**4))


class TestPartitionResidual:
    def test_bell_times_zero(self):
        state = bell_x_zero_state()
        assert partition_residual(state, Bipartition((3,), 3)) <= 1e-15
        assert partition_residual(state, Bipartition((1,), 3)) == pytest.approx(
            0.5, abs=1e-12
        )
        assert partition_residual(state, Bipartition((2,), 3)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_ghz4_half_everywhere(self):
        state = ghz_state(4)
        for left in [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)]:
            residual = partition_residual(state, Bipartition(left, 4))
            assert residual == pytest.approx(0.5, abs=1e-12)

    def test_matches_svd_route(self, rng):
        state = random_state(rng, (2, 3, 2))
        for left in [(1,), (2,), (3,)]:
            part = Bipartition(left, 3)
            assert partition_residual(state, part) == pytest.approx(
                svd_residual(state, part), abs=1e-9
            )

    def test_matches_purity_route(self, rng):
        state = random_state(rng, (2, 2, 3))
        for j in (1, 2, 3):
            got = partition_residual(state, Bipartition((j,), 3))
            want = 1.0 - purity(partial_trace(state, j))
            assert got == pytest.approx(want, abs=1e-9)

    def test_complement_symmetry(self, rng):
        state = random_state(rng, (2, 2, 2, 2))
        for left in [(1,), (1, 2), (1, 3), (2,)]:
            part = Bipartition(left, 4)
            comp = Bipartition(part.right, 4)
            a = partition_residual(state, part)
            b = partition_residual(state, comp)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_product_state_vanishes(self, rng):
        state = random_product_state(rng, (3, 2, 2))
        for left in [(1,), (2,), (3,)]:
            assert partition_residual(state, Bipartition(left, 3)) <= 1e-12

    def test_requires_normalized(self):
        amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128)
        with pytest.raises(NotNormalizedError):
            partition_residual(PureState((2, 2), amps), Bipartition((1,), 2))

    def test_partition_of_other_arity(self):
        with pytest.raises(InvalidPartitionError, match="partition of 3 subsystems applied to 2"):
            partition_residual(bell_state(), Bipartition((1,), 3))


class TestIsProductState:
    def test_product_true(self, rng):
        assert is_product_state(random_product_state(rng, (2, 3, 2)))

    def test_entangled_false(self):
        assert not is_product_state(bell_state())
        assert not is_product_state(bell_x_zero_state())

    def test_single_subsystem(self):
        single = PureState((3,), np.array([1, 0, 0], dtype=np.complex128))
        assert is_product_state(single)

    def test_threshold_is_respected(self):
        # GHZ residuals are 0.5, so a huge threshold flips the verdict
        assert not is_product_state(ghz_state(3))
        assert is_product_state(ghz_state(3), threshold=0.6)


class TestReport:
    def test_basis_state_certificate(self):
        amps = np.zeros(16, dtype=np.complex128)
        amps[0b0101] = 1.0
        report = separability_report(PureState((2, 2, 2, 2), amps))
        assert report.fully_separable
        assert report.certificate_error <= 1e-12
        want = [(1, 0), (0, 1), (1, 0), (0, 1)]
        for factor, target in zip(report.certificate, want):
            np.testing.assert_allclose(factor, target, atol=1e-12)

    def test_bell_x_bell_table(self):
        report = separability_report(bell_x_bell_state())
        assert len(report.per_partition) == 7
        assert not report.fully_separable
        assert report.certificate is None
        assert report.certificate_error is None
        pair = report.per_partition[Bipartition((1, 2), 4)]
        assert pair.separable
        assert pair.residual <= 1e-12
        for left in [(1,), (2,), (3,), (4,), (1, 3), (1, 4)]:
            verdict = report.per_partition[Bipartition(left, 4)]
            assert not verdict.separable
            assert verdict.residual >= 0.4

    def test_ghz4_entangled_everywhere(self):
        report = separability_report(ghz_state(4))
        assert not report.fully_separable
        assert all(not v.separable for v in report.per_partition.values())
        assert all(
            v.residual == pytest.approx(0.5, abs=1e-12)
            for v in report.per_partition.values()
        )

    def test_enumeration_order(self):
        report = separability_report(ghz_state(4))
        lefts = [part.left for part in report.per_partition]
        assert lefts == [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (2, 2, 2, 2)])
    def test_certificate_soundness(self, rng, dims):
        for _ in range(5):
            state = random_product_state(rng, dims)
            report = separability_report(state)
            assert report.fully_separable
            assert report.certificate_error <= 1e-8
            rebuilt = reduce(np.kron, report.certificate)
            overlap = np.vdot(rebuilt, state.amplitudes)
            assert abs(overlap) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dims", [(16, 16), (64, 64)])
    def test_near_product_certificate(self, rng, dims):
        # a 1e-9 perturbation leaves residuals near 1e-18, far below the
        # threshold; (64, 64) is the largest size the measure guard allows
        noise = random_state(rng, dims).amplitudes
        amps = random_product_state(rng, dims).amplitudes + 1e-9 * noise
        state = normalize(PureState(dims, amps))
        report = separability_report(state)
        assert report.fully_separable
        assert report.certificate_error <= CERTIFICATE_TOL
        for j, factor in enumerate(report.certificate, start=1):
            top = np.linalg.svd(matricize(state, Bipartition((j,), len(dims))))[0][:, 0]
            overlap = np.vdot(top, factor)
            np.testing.assert_allclose(
                factor, top * (overlap / abs(overlap)), rtol=0, atol=1e-12
            )
        again = separability_report(state).certificate
        assert [f.tobytes() for f in again] == [f.tobytes() for f in report.certificate]

    def test_loose_threshold_is_caught_by_certificate(self):
        # verdicts follow the threshold, but the reconstruction error
        # still exposes that GHZ is nowhere near a product
        report = separability_report(ghz_state(4), threshold=0.6)
        assert report.fully_separable
        assert report.certificate_error > 0.1

    def test_single_subsystem_refused(self):
        single = PureState((2,), np.array([1, 0], dtype=np.complex128))
        with pytest.raises(InvalidPartitionError):
            separability_report(single)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_refused(self, bad):
        with pytest.raises(ValidationError):
            separability_report(bell_state(), threshold=bad)
        with pytest.raises(ValidationError):
            is_product_state(bell_state(), threshold=bad)

    def test_threshold_recorded(self):
        report = separability_report(bell_state(), threshold=1e-6)
        assert report.threshold == 1e-6

    @pytest.mark.parametrize("threshold", [1e-3, np.float64(1e-3), np.float32(1e-3), 1])
    def test_verdicts_are_json_values(self, threshold):
        # a numpy threshold must not turn the verdicts into numpy bools
        report = separability_report(bell_x_bell_state(), threshold=threshold)
        for verdict in report.per_partition.values():
            assert type(verdict.separable) is bool
            json.dumps(dataclasses.asdict(verdict))
        json.dumps([report.threshold, report.fully_separable, report.genuinely_entangled])


class TestSizeGuard:
    # (65, 64) is 4160 > 4096; all-zero amplitudes would fail validation,
    # so TooLargeError shows the guard runs first
    @staticmethod
    def oversized() -> PureState:
        return PureState((65, 64), np.zeros(65 * 64, dtype=np.complex128))

    def test_partition_residual(self):
        with pytest.raises(TooLargeError):
            partition_residual(self.oversized(), Bipartition((1,), 2))

    def test_is_product_state(self):
        with pytest.raises(TooLargeError):
            is_product_state(self.oversized())

    def test_separability_report(self):
        with pytest.raises(TooLargeError):
            separability_report(self.oversized())

    def test_boundary_dimension_allowed(self):
        amps = np.zeros(64 * 64, dtype=np.complex128)
        amps[0] = 1.0
        assert separability_report(PureState((64, 64), amps)).fully_separable


class TestValidateOnce:
    @staticmethod
    def count_validate(monkeypatch) -> list:
        calls = []
        real = separability.validate

        def counted(state, *args):
            calls.append(state)
            return real(state, *args)

        monkeypatch.setattr(separability, "validate", counted)
        return calls

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (2, 2, 2, 2)])
    def test_report_validates_once(self, monkeypatch, rng, dims):
        state = random_state(rng, dims)
        calls = self.count_validate(monkeypatch)
        report = separability_report(state)
        assert len(calls) == 1
        assert len(report.per_partition) == 2 ** (len(dims) - 1) - 1

    def test_is_product_state_validates_once(self, monkeypatch, rng):
        state = random_product_state(rng, (2, 3, 2, 2))
        calls = self.count_validate(monkeypatch)
        assert is_product_state(state)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "dims",
        [(3, 4), (2, 3, 2), (2, 2, 2, 2), (1, 3, 2, 2), (2,) * 8, (4, 4, 4, 4),
         (8, 8, 8), (2, 3, 4)],
    )
    def test_residuals_match_checked_route(self, rng, dims):
        # bitwise the residual partition_residual computes, checks and all
        state = random_state(rng, dims)
        report = separability_report(state)
        for part, verdict in report.per_partition.items():
            assert verdict.residual == partition_residual(state, part)


class TestGrouping:
    @staticmethod
    def count_kernel(monkeypatch) -> list:
        shapes = []
        real = separability._kernels.minor_pair_sum

        def counted(mat):
            shapes.append(np.shape(mat))
            return real(mat)

        monkeypatch.setattr(separability._kernels, "minor_pair_sum", counted)
        return shapes

    def test_one_kernel_call_per_split_shape(self, monkeypatch, rng):
        # (2,)^8 has 127 splits of four shapes: 8 of 2x128, 28 of 4x64,
        # 56 of 8x32 and 35 of 16x16
        state = random_state(rng, (2,) * 8)
        shapes = self.count_kernel(monkeypatch)
        separability_report(state)
        assert shapes == [(8, 2, 128), (28, 4, 64), (56, 8, 32), (35, 16, 16)]

    def test_is_product_state_groups_singletons(self, monkeypatch, rng):
        state = random_product_state(rng, (2, 3, 2, 2))
        shapes = self.count_kernel(monkeypatch)
        assert is_product_state(state)
        assert shapes == [(3, 2, 12), (1, 3, 8)]


class TestGenuinelyEntangled:
    @pytest.mark.parametrize("state", [ghz_state(4), w3_state()], ids=["ghz4", "w3"])
    def test_entangled_across_every_split(self, state):
        report = separability_report(state)
        assert report.genuinely_entangled
        assert not any(v.separable for v in report.per_partition.values())

    def test_bell_x_bell_is_not(self):
        # separable across {1,2}|{3,4} although every singleton marginal
        # is maximally mixed
        report = separability_report(bell_x_bell_state())
        assert not report.genuinely_entangled
        assert not report.fully_separable

    def test_product_is_not(self, rng):
        report = separability_report(random_product_state(rng, (2, 3, 2)))
        assert not report.genuinely_entangled
        assert report.fully_separable


class TestMeasureConsistency:
    def test_product_iff_small_measure(self, rng):
        for dims in [(2, 2, 2), (2, 3, 2)]:
            product = random_product_state(rng, dims)
            assert multipartite_measure(product).value <= 1e-10
            assert is_product_state(product)

            entangled = random_state(rng, dims)
            while min(
                partition_residual(entangled, Bipartition((j,), len(dims)))
                for j in range(1, len(dims) + 1)
            ) < 1e-3:
                entangled = random_state(rng, dims)
            assert multipartite_measure(entangled).value > 1e-3
            assert not is_product_state(entangled)
