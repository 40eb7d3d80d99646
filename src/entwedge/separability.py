"""Separability certification across bipartitions.

A normalized state is separable across a split exactly when its
matricization across that split has rank one, i.e. when every 2x2 minor
vanishes.  The residual is the sum of all squared minor moduli (each
counted twice), read for all splits at once from
:func:`entwedge._kernels.split_residuals`; it equals ``1 - purity`` of
either side's reduced density matrix, which the tests verify as an
independent route.

For a fully separable state the per-subsystem factors are recovered as
the top left singular vectors of the single-subsystem unfoldings, and
the tensor product of the factors is checked against the input up to a
global phase.  An economy SVD of an ``(r, c)`` unfolding costs
``r * c * min(r, c)``: at most twice the kernel's products on that split
when both sides have two or more indices, and ``O(prod(dims))``, which
the unfold guard bounds, when one side has one.  So the report pays only
the kernel's price.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _kernels
from .errors import ValidationError
from .measures import _splits
from .states import Bipartition, PureState, enumerate_bipartitions, is_finite, unfold, validate

DEFAULT_THRESHOLD = 1e-10

# A certificate must rebuild the state, up to global phase, this closely.
CERTIFICATE_TOL = 1e-8

# Moduli this close, relatively, to a factor's largest tie for the
# component its phase is fixed on, so rounding cannot pick between them.
PHASE_TIE_RTOL = 1e-12


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


def _residuals(state: PureState, splits) -> dict:
    """``{key: residual}`` for the ``{key: 0-based left slots}`` that
    ``splits(m)`` names.  The splits are read first, since the size
    guard prices them; then the guard and validation run."""
    lefts = splits(state.num_subsystems)
    _kernels.check_split_work(state.dims, lefts.values())
    validate(state)
    residuals = _kernels.split_residuals(state.amplitudes[None], state.dims, list(lefts.values()))
    return dict(zip(lefts, residuals[0].tolist()))


def partition_residual(state: PureState, part: Bipartition) -> float:
    """Sum of squared 2x2 minor moduli of the split's matricization.

    Zero exactly when the state factors across the split; equals
    ``1 - purity`` of either side's marginal for normalized input.  Reads
    the split's canonical side, as :func:`separability_report` does, so
    both sides of a split give the same bits.  Refuses a split whose
    minor sum passes the measure guard, like the measures.
    """
    return _residuals(state, lambda m: {part: part.canonical().left_axes(m)})[part]


def _as_threshold(threshold: float) -> float:
    # NaN or inf would decide every split, and a negative threshold would
    # call a product state entangled; float() keeps verdicts plain bools
    if not is_finite(threshold) or threshold < 0:
        raise ValidationError(f"threshold must be finite and nonnegative, got {threshold!r}")
    return float(threshold)


def is_product_state(state: PureState, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """True when every single-subsystem split passes the threshold.

    On two subsystems split {2} is split {1} from the other side, so one
    is read; one subsystem unfolds to a single column, whose residual is
    0, so it is a product."""
    threshold = _as_threshold(threshold)
    residuals = _residuals(state, lambda m: {left[0]: left for left in _splits(m)})
    return all(r <= threshold for r in residuals.values())


def separability_report(
    state: PureState, threshold: float = DEFAULT_THRESHOLD
) -> SeparabilityReport:
    """Residual and verdict for all ``2**(m-1) - 1`` canonical splits.

    Full separability is decided by the single-subsystem splits alone;
    when they all pass, the per-subsystem factors are extracted and the
    reconstruction is verified up to a global phase.  A non-finite or
    negative threshold raises :class:`ValidationError`, and fewer than
    two subsystems :class:`InvalidPartitionError`.  Dims on which the
    kernel's work on all splits passes the measure guard raise
    :class:`TooLargeError` before validation.
    """
    threshold = _as_threshold(threshold)
    residuals = _residuals(
        state,
        lambda m: {part: part.left_axes(m) for part in enumerate_bipartitions(m)},
    )
    m = state.num_subsystems
    per = {part: PartitionVerdict(r, r <= threshold) for part, r in residuals.items()}
    # Singleton splits decide full separability; on two subsystems the
    # {2} split canonicalizes to {1}, so look keys up in canonical form.
    fully = all(
        per[Bipartition((j,), m).canonical()].separable for j in range(1, m + 1)
    )
    certificate = None
    error = None
    if fully:
        factors = tuple(
            _dominant_factor(unfold(state.amplitudes[None], state.dims, [j])[0])
            for j in range(m)
        )
        certificate = factors
        error = _reconstruction_error(state, factors)
    genuine = not any(verdict.separable for verdict in per.values())
    return SeparabilityReport(threshold, per, fully, certificate, error, genuine)


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """Rotate so the first component whose modulus is within
    ``PHASE_TIE_RTOL`` of the largest is real and nonnegative, making the
    factor independent of the SVD's choice of phase, ties included."""
    modulus = np.abs(v)
    k = int(np.argmax(modulus >= modulus.max() * (1.0 - PHASE_TIE_RTOL)))
    z = v[k]
    if z == 0:
        return v
    return v * (z.conjugate() / abs(z))


def _dominant_factor(mat: np.ndarray) -> np.ndarray:
    """Dominant left singular vector of ``mat``, phase-fixed and read-only."""
    x = _phase_fixed(np.linalg.svd(mat, full_matrices=False)[0][:, 0])
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
