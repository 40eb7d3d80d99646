"""Separability certification across bipartitions.

A normalized state is separable across a split exactly when its
matricization across that split has rank one, i.e. when every 2x2 minor
vanishes.  The residual is the sum of all squared minor moduli (each
counted twice), read for all splits at once from
:func:`entwedge._kernels.split_residuals`; it equals ``1 - purity`` of
either side's reduced density matrix, which the tests verify as an
independent route.  :func:`separability_report` is the one entry point:
its ``per_partition`` holds every split's residual and verdict, and its
``fully_separable`` is the product-state verdict.

For a fully separable state the per-subsystem factors are recovered as
the top left singular vectors of the single-subsystem unfoldings, and
the tensor product of the factors is checked against the input up to a
global phase.  An economy SVD of an ``(r, c)`` unfolding costs
``r * c * min(r, c)``: at most twice the kernel's products on that split
when both sides have two or more indices, and ``O(prod(dims))`` when one
side has one, on a state the size guard already holds to ``2**20``
amplitudes.  So the report pays only the kernel's price.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _kernels
from .states import PureState, _sq_norms, enumerate_bipartitions, unfold, validate

# A split whose residual is at most this is separable.
THRESHOLD = 1e-10

# What tests and the benchmark hold product inputs' certificates to; the
# report never reads it, and a certified state misses by sqrt(residual/2).
CERTIFICATE_TOL = 1e-8

# Moduli this close, relatively, to a factor's largest tie for the
# component its phase is fixed on, so rounding cannot pick between them.
PHASE_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class PartitionVerdict:
    residual: float
    separable: bool


@dataclass(frozen=True, eq=False)
class SeparabilityReport:
    """Residuals and verdicts for every canonical bipartition.

    ``per_partition`` is keyed in enumeration order (singletons first)
    by :class:`entwedge.states.Bipartition` records, each a split's
    canonical side as sorted 1-based labels plus the subsystem count, so
    ``per_partition[Bipartition((1, 2), 4)]`` reads split {1,2}.
    ``certificate`` holds one unit vector per
    subsystem when the state is fully separable, otherwise ``None``;
    ``certificate_error`` is the phase-aligned reconstruction distance.
    ``genuinely_entangled`` is true when no split passes the threshold,
    and ``threshold`` is always :data:`THRESHOLD`.  Compared by identity.
    """

    threshold: float
    per_partition: dict
    fully_separable: bool
    certificate: tuple | None
    certificate_error: float | None
    genuinely_entangled: bool


def separability_report(state: PureState) -> SeparabilityReport:
    """Residual and verdict for all ``2**(m-1) - 1`` canonical splits.

    Full separability is decided by the single-subsystem splits alone;
    when they all pass, the per-subsystem factors are extracted and the
    reconstruction is verified up to a global phase.  Fewer than two
    subsystems raise :class:`ValidationError`.  Dims on which the kernel's
    work on all splits passes the measure guard raise
    :class:`TooLargeError` before validation.
    """
    # float() keeps verdicts plain bools if THRESHOLD is set to a numpy scalar
    threshold = float(THRESHOLD)
    m = state.num_subsystems
    parts = enumerate_bipartitions(m)
    lefts = [[j - 1 for j in part.left] for part in parts]
    _kernels.check_split_work(state.dims, lefts)
    validate(state)
    residuals = _kernels.split_residuals(state.amplitudes[None], state.dims, lefts)[0].tolist()
    per = {part: PartitionVerdict(r, r <= threshold) for part, r in zip(parts, residuals)}
    # The singleton splits decide full separability; on two subsystems
    # {2} is {1} seen from the other side, so only {1} is enumerated.
    fully = all(verdict.separable for part, verdict in per.items() if len(part.left) == 1)
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
    """Rotate the unit vector ``v`` so the first component whose modulus
    is within ``PHASE_TIE_RTOL`` of the largest is real and positive, making
    the factor independent of the SVD's choice of phase, ties included."""
    modulus = np.abs(v)
    k = int(np.argmax(modulus >= modulus.max() * (1.0 - PHASE_TIE_RTOL)))
    z = v[k]
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
    # a pairwise sum, as in _sq_norms, which no BLAS thread count changes
    overlap = np.sum(rebuilt.conj() * state.amplitudes)
    gap = rebuilt  # orthogonal, no phase helps
    if abs(overlap) != 0.0:
        gap = rebuilt - state.amplitudes * (overlap.conjugate() / abs(overlap))
    return float(np.sqrt(_sq_norms(gap)))
