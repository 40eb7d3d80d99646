"""Separability certification across bipartitions.

A normalized state is separable across a split exactly when its
matricization across that split has rank one, i.e. when every 2x2 minor
vanishes.  The residual is the sum of all squared minor moduli (each
counted twice), read for all splits at once from
:func:`entwedge._kernels.split_residuals`; it equals ``1 - purity`` of
either side's reduced density matrix, which the tests verify as an
independent route.

For a fully separable state the per-subsystem factors are recovered as
the top eigenvectors of the subsystem Gram matrices, from a Hermitian
eigensolver, and the tensor product of the factors is checked against
the input up to a global phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _kernels
from .errors import InvalidPartitionError, ValidationError
from .measures import check_measure_size
from .states import Bipartition, PureState, enumerate_bipartitions, is_finite, matricize, validate

DEFAULT_THRESHOLD = 1e-10

# A certificate must rebuild the state, up to global phase, this closely.
CERTIFICATE_TOL = 1e-8


@dataclass(frozen=True)
class PartitionVerdict:
    residual: float
    separable: bool


@dataclass(frozen=True)
class SeparabilityReport:
    """Residuals and verdicts for every canonical bipartition.

    ``per_partition`` is keyed by :class:`Bipartition` in enumeration
    order (singletons first).  ``certificate`` holds one unit vector per
    subsystem when the state is fully separable, otherwise ``None``;
    ``certificate_error`` is the phase-aligned reconstruction distance.
    ``genuinely_entangled`` is true when no split passes the threshold.
    """

    threshold: float
    per_partition: dict
    fully_separable: bool
    certificate: tuple | None
    certificate_error: float | None
    genuinely_entangled: bool


def partition_residual(state: PureState, part: Bipartition) -> float:
    """Sum of squared 2x2 minor moduli of the split's matricization.

    Zero exactly when the state factors across the split; equals
    ``1 - purity`` of the left side's marginal for normalized input.
    Refuses total dimension above 4096, like the measures.
    """
    check_measure_size(state)
    validate(state)
    lefts = [part.left_axes(state.num_subsystems)]
    return float(_kernels.split_residuals(state.amplitudes[None], state.dims, lefts)[0, 0])


def _as_threshold(threshold: float) -> float:
    # NaN or inf would decide every split; float() keeps verdicts plain bools
    if not is_finite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold!r}")
    return float(threshold)


def is_product_state(state: PureState, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """True when every single-subsystem split passes the threshold."""
    threshold = _as_threshold(threshold)
    check_measure_size(state)
    validate(state)
    m = state.num_subsystems
    if m < 2:
        return True  # nothing to split
    lefts = [[j] for j in range(m)]
    residuals = _kernels.split_residuals(state.amplitudes[None], state.dims, lefts)
    return all(r <= threshold for r in residuals[0].tolist())


def separability_report(
    state: PureState, threshold: float = DEFAULT_THRESHOLD
) -> SeparabilityReport:
    """Residual and verdict for all ``2**(m-1) - 1`` canonical splits.

    Full separability is decided by the single-subsystem splits alone;
    when they all pass, the per-subsystem factors are extracted and the
    reconstruction is verified up to a global phase.  A non-finite
    threshold raises :class:`ValidationError`.
    """
    threshold = _as_threshold(threshold)
    check_measure_size(state)
    validate(state)
    m = state.num_subsystems
    if m < 2:
        raise InvalidPartitionError(f"need at least 2 subsystems, got {m}")
    parts = enumerate_bipartitions(m)
    lefts = [part.left_axes(m) for part in parts]
    residuals = _kernels.split_residuals(state.amplitudes[None], state.dims, lefts)
    per = {
        part: PartitionVerdict(residual, residual <= threshold)
        for part, residual in zip(parts, residuals[0].tolist())
    }
    # Singleton splits decide full separability; on two subsystems the
    # {2} split canonicalizes to {1}, so look keys up in canonical form.
    fully = all(
        per[Bipartition((j,), m).canonical()].separable for j in range(1, m + 1)
    )
    certificate = None
    error = None
    if fully:
        factors = tuple(
            _dominant_factor(matricize(state, Bipartition((j,), m)))
            for j in range(1, m + 1)
        )
        certificate = factors
        error = _reconstruction_error(state, factors)
    genuine = not any(verdict.separable for verdict in per.values())
    return SeparabilityReport(threshold, per, fully, certificate, error, genuine)


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-modulus component (first occurrence) is real
    and nonnegative, making the factor independent of the eigensolver's
    choice of phase."""
    k = int(np.argmax(np.abs(v)))
    z = v[k]
    if z == 0:
        return v
    return v * (z.conjugate() / abs(z))


def _dominant_factor(mat: np.ndarray) -> np.ndarray:
    """Dominant left singular vector of ``mat``: the eigenvector of its
    Gram matrix with the largest eigenvalue, phase-fixed and read-only."""
    x = _phase_fixed(np.linalg.eigh(mat @ mat.conj().T)[1][:, -1])
    x.setflags(write=False)
    return x


def _reconstruction_error(state: PureState, factors) -> float:
    """Distance between the factor product and the state, minimized over
    a global phase."""
    rebuilt = reduce(np.kron, factors)
    overlap = np.vdot(rebuilt, state.amplitudes)
    if abs(overlap) == 0.0:
        return float(np.linalg.norm(rebuilt))  # orthogonal, no phase helps
    aligned = state.amplitudes * (overlap.conjugate() / abs(overlap))
    return float(np.linalg.norm(rebuilt - aligned))
