"""Residuals, verdicts, and product certificates across bipartitions."""

from __future__ import annotations

import dataclasses
import json
import math
import time
from functools import reduce

import numpy as np
import pytest

from entwedge import (
    Bipartition,
    PureState,
    bipartite_concurrence,
    multipartite_measure,
    normalize,
    separability_report,
)
from entwedge.errors import (
    NotNormalizedError,
    TooLargeError,
    ValidationError,
)
from entwedge import _kernels, separability
from entwedge.separability import CERTIFICATE_TOL
from entwedge.states import unfold
from conftest import (
    bell_state,
    bell_x_bell_state,
    bell_x_zero_state,
    ghz_state,
    random_product_state,
    random_state,
    w3_state,
)
from oracles import matricize, partial_trace, purity

# |0,0>: every residual is exactly 0
PRODUCT = PureState((2, 2), [1, 0, 0, 0])


def residual(state: PureState, part: Bipartition) -> float:
    """The split's residual as the report gives it, keyed by its canonical side."""
    return separability_report(state).per_partition[part.canonical()].residual


def svd_residual(state: PureState, part: Bipartition) -> float:
    """Independent route: 1 - sum of fourth powers of singular values."""
    sigma = np.linalg.svd(matricize(state, part), compute_uv=False)
    return 1.0 - float(np.sum(sigma**4))


class TestPartitionResidual:
    """Split residuals, as the report's ``per_partition`` gives them."""

    def test_bell_times_zero(self):
        state = bell_x_zero_state()
        assert residual(state, Bipartition((3,), 3)) <= 1e-15
        assert residual(state, Bipartition((1,), 3)) == pytest.approx(0.5, abs=1e-12)
        assert residual(state, Bipartition((2,), 3)) == pytest.approx(0.5, abs=1e-12)

    def test_ghz4_half_everywhere(self):
        state = ghz_state(4)
        for left in [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)]:
            assert residual(state, Bipartition(left, 4)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_svd_route(self, rng):
        state = random_state(rng, (2, 3, 2))
        for left in [(1,), (2,), (3,)]:
            part = Bipartition(left, 3)
            assert residual(state, part) == pytest.approx(svd_residual(state, part), abs=1e-9)

    def test_matches_purity_route(self, rng):
        state = random_state(rng, (2, 2, 3))
        for j in (1, 2, 3):
            got = residual(state, Bipartition((j,), 3))
            want = 1.0 - purity(partial_trace(state, j))
            assert got == pytest.approx(want, abs=1e-9)

    def test_complement_symmetry(self, rng):
        # the report keys a split by one side; the other side's
        # matricization, its transpose, has the same residual
        state = random_state(rng, (2, 2, 2, 2))
        for left in [(1,), (1, 2), (1, 3), (2,)]:
            part = Bipartition(left, 4)
            comp = Bipartition(part.right, 4)
            assert residual(state, part) == pytest.approx(svd_residual(state, comp), abs=1e-9)

    def test_either_side_of_a_square_split_gives_the_report_bits(self, rng):
        # on square dims the two sides unfold to transposed matrices,
        # which the kernel would sum in different orders; the report and
        # the concurrence both read split {1}, so they give the same bits
        for _ in range(20):
            state = random_state(rng, (16, 16))
            report = separability_report(state).per_partition[Bipartition((1,), 2)]
            assert bipartite_concurrence(state).term_sum.hex() == report.residual.hex()

    def test_product_state_vanishes(self, rng):
        state = random_product_state(rng, (3, 2, 2))
        for left in [(1,), (2,), (3,)]:
            assert residual(state, Bipartition(left, 3)) <= 1e-12

    def test_requires_normalized(self):
        amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128)
        with pytest.raises(NotNormalizedError):
            separability_report(PureState((2, 2), amps))

    def test_partition_of_other_arity(self):
        with pytest.raises(ValidationError, match="partition of 3 subsystems applied to 2"):
            Bipartition((1,), 3).left_axes(2)


class TestIsProductState:
    """The product-state verdict, the report's ``fully_separable``."""

    def test_product_true(self, rng):
        assert separability_report(random_product_state(rng, (2, 3, 2))).fully_separable

    def test_entangled_false(self):
        assert not separability_report(bell_state()).fully_separable
        assert not separability_report(bell_x_zero_state()).fully_separable

    @pytest.mark.parametrize("dims", [(3, 3), (16, 16)])
    def test_two_subsystems_read_one_split(self, rng, dims):
        # at a threshold equal to split {1}'s residual the verdict is
        # product, whichever order split {2}'s transpose would be summed in
        for _ in range(10):
            state = random_state(rng, dims)
            r = residual(state, Bipartition((1,), 2))
            assert separability_report(state, threshold=r).fully_separable
            below = math.nextafter(r, 0.0)
            assert not separability_report(state, threshold=below).fully_separable

    def test_threshold_is_respected(self):
        # GHZ residuals are 0.5, so a huge threshold flips the verdict
        assert not separability_report(ghz_state(3)).fully_separable
        assert separability_report(ghz_state(3), threshold=0.6).fully_separable


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

    def test_certificate_phase_is_fixed_on_the_first_tied_component(self):
        # both factors of (|0> + i|1>)(|0> - |1>) / 2 have two components
        # of equal modulus; whatever the global phase, each factor is
        # made real on component 0
        product = np.kron([1, 1j], [1, -1]) / 2
        certificates = []
        for theta in (0.0, 0.3, 1.1, 2.0, 2.9):
            report = separability_report(PureState((2, 2), product * np.exp(1j * theta)))
            for factor in report.certificate:
                assert abs(factor[0].imag) <= 1e-15 and factor[0].real >= 0
            certificates.append(report.certificate)
        for certificate in certificates[1:]:
            for factor, first in zip(certificate, certificates[0]):
                np.testing.assert_allclose(factor, first, rtol=0, atol=1e-15)

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

    @pytest.mark.parametrize("eps", [1e-6, 3e-6, 7e-6])
    def test_certified_near_the_threshold_misses_by_root_half_residual(self, eps):
        # CERTIFICATE_TOL is what certificates of product inputs are held
        # to, not what a certified state gets: at the default threshold
        # sqrt(1 - eps^2)|0,0> + eps|1,1> is certified, and its
        # certificate misses by sqrt(residual / 2), about eps: 700x the
        # tolerance at eps = 7e-6
        amps = np.array([math.sqrt(1 - eps * eps), 0, 0, eps], dtype=np.complex128)
        report = separability_report(PureState((2, 2), amps))
        (verdict,) = report.per_partition.values()
        assert verdict.residual == pytest.approx(2 * eps * eps, rel=1e-9)
        assert report.fully_separable
        assert report.certificate_error == pytest.approx(math.sqrt(verdict.residual / 2), rel=1e-9)
        assert report.certificate_error == pytest.approx(eps, rel=1e-6)
        assert report.certificate_error > 50 * CERTIFICATE_TOL

    def test_loose_threshold_is_caught_by_certificate(self):
        # verdicts follow the threshold, but the reconstruction error
        # still exposes that GHZ is nowhere near a product
        report = separability_report(ghz_state(4), threshold=0.6)
        assert report.fully_separable
        assert report.certificate_error > 0.1

    def test_single_subsystem_refused(self):
        single = PureState((2,), np.array([1, 0], dtype=np.complex128))
        with pytest.raises(ValidationError, match="need at least 2 subsystems, got 1"):
            separability_report(single)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_refused(self, bad):
        with pytest.raises(ValidationError):
            separability_report(bell_state(), threshold=bad)

    @pytest.mark.parametrize("bad", [-1, -1e-300, np.float64(-0.5)])
    def test_negative_threshold_refused(self, bad):
        # residuals are never negative, so a negative threshold would call
        # every split of a product state entangled
        with pytest.raises(ValidationError, match="nonnegative"):
            separability_report(PRODUCT, threshold=bad)

    def test_negative_zero_threshold_accepted(self):
        assert separability_report(PRODUCT, threshold=-0.0).fully_separable

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
    # (256, 256) prices 32640 row pairs times 256^2 columns, past the
    # measure guard; all-zero amplitudes would fail validation, so
    # TooLargeError shows the guard runs first
    @staticmethod
    def oversized() -> PureState:
        return PureState((256, 256), np.zeros(256 * 256, dtype=np.complex128))

    def test_separability_report(self):
        with pytest.raises(TooLargeError):
            separability_report(self.oversized())

    def test_certificate_adds_no_price(self):
        # (1, 4096) has no split with a kernel product; the certificate's
        # SVDs are of a (1, 4096) row and a (4096, 1) column, so the
        # report pays nothing past the kernel and reaches validation
        zeros = PureState((1, 4096), np.zeros(4096, dtype=np.complex128))
        with pytest.raises(NotNormalizedError):
            separability_report(zeros)
        amps = np.zeros(4096, dtype=np.complex128)
        amps[4095] = 1.0
        assert separability_report(PureState((1, 4096), amps)).fully_separable

    def test_costliest_report_under_a_total_of_4096_is_accepted(self):
        # (2,2,2,2,4,4,4,4): the kernel's 977010688 products, its only
        # price; all-zero amplitudes reach validation, past the guard,
        # without running the 9 s kernel
        dims = (2, 2, 2, 2, 4, 4, 4, 4)
        assert 977010688 <= _kernels.MAX_SPLIT_WORK
        with pytest.raises(NotNormalizedError):
            separability_report(PureState(dims, np.zeros(4096, dtype=np.complex128)))

    def test_two_row_product_certificate_is_quick(self, rng):
        # (2, 2048): the certificate has no price of its own, so it must
        # cost no more than the kernel's one row pair; the SVDs of a
        # (2, 2048) and a (2048, 2) unfolding are 2 * 2 * 2048 steps each
        state = random_product_state(rng, (2, 2048))
        start = time.perf_counter()
        report = separability_report(state)
        assert time.perf_counter() - start < 1.0
        assert report.fully_separable
        assert report.certificate_error <= 1e-12

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
        assert separability_report(state).fully_separable
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "dims",
        [(3, 4), (2, 3, 2), (2, 2, 2, 2), (1, 3, 2, 2), (2,) * 8, (4, 4, 4, 4),
         (8, 8, 8), (2, 3, 4), (3, 1), (1, 1, 4, 4), (2, 1, 1, 3)],
    )
    def test_residuals_match_checked_route(self, rng, dims):
        # grouping the splits by shape changes no bits: each residual is
        # what a kernel call on its split alone gives, and a split with a
        # one-row side, never unfolded, reads what the kernel gives on it
        state = random_state(rng, dims)
        report = separability_report(state)
        for part, verdict in report.per_partition.items():
            left = part.left_axes(len(dims))
            alone = _kernels.split_residuals(state.amplitudes[None], dims, [left])
            assert verdict.residual == alone[0, 0]
            if math.prod(dims[ax] for ax in left) in (1, state.total_dim):
                mat = unfold(state.amplitudes[None], dims, left)[0]
                assert verdict.residual.hex() == _kernels.minor_pair_sum(mat[None])[0].hex()


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
        assert separability_report(state).fully_separable
        # singletons {1}, {3}, {4} share one shape and {2} has its own;
        # so do pairs {1,3} and {1,4}, apart from {1,2}
        assert shapes == [(3, 2, 12), (1, 3, 8), (1, 6, 4), (2, 4, 6)]


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
            assert separability_report(product).fully_separable

            entangled = random_state(rng, dims)
            while min(
                residual(entangled, Bipartition((j,), len(dims)))
                for j in range(1, len(dims) + 1)
            ) < 1e-3:
                entangled = random_state(rng, dims)
            assert multipartite_measure(entangled).value > 1e-3
            assert not separability_report(entangled).fully_separable
