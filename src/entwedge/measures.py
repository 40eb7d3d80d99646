"""Entanglement measures built from pairwise wedge coefficients.

Every measure here has the shape ``value = sqrt(norm_constant * term_sum)``
where ``term_sum`` is a sum of split residuals: squared 2x2 minors of the
state unfolded across a split.  For two subsystems it is the residual of
split {1}.  For m subsystems it runs over every pair of multi-indices
``K, L`` and every slot ``j``, comparing ``a_K a_L`` against the product
with the j-th slot entries exchanged; each such difference is a minor of
the slot-j unfolding, met once from each side, so the sum is twice the
singleton residuals.  All of them come from
:func:`entwedge._kernels.split_residuals`.

For a normalized two-qubit state with ``norm_constant = 2`` the
bipartite value reduces to ``2 |a_00 a_11 - a_10 a_01|``, and the
multipartite value on two subsystems is exactly twice the bipartite one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import (
    IndexOutOfRangeError,
    TooLargeError,
    WrongArityError,
    WrongDimsError,
)
from .states import PureState, is_finite, require_int, validate

# Beyond this total dimension the quadratic pair sum stops being a
# desk-scale computation.
MAX_MEASURE_DIM = 4096

# Chunk cap for the broadcast products in the three-slot explicit path.
_CHUNK_ENTRIES = 1 << 21


class MeasureKind(Enum):
    BIPARTITE_CONCURRENCE = "bipartite_concurrence"
    MULTIPARTITE_E = "multipartite_e"


@dataclass(frozen=True)
class MeasureConfig:
    """Knobs shared by all measures.

    ``norm_constant`` is the prefactor under the square root (2 by
    default, and always reported back in the result).  ``tol`` bounds
    how far the squared norm may sit from 1 before input is refused.
    """

    norm_constant: float = 2.0
    tol: float = 1e-9

    def __post_init__(self):
        if not (is_finite(self.norm_constant) and self.norm_constant > 0):
            raise WrongDimsError(
                f"norm_constant must be positive and finite, got {self.norm_constant}"
            )
        if not (is_finite(self.tol) and self.tol >= 0):
            raise WrongDimsError(f"tol must be nonnegative and finite, got {self.tol}")


DEFAULT_CONFIG = MeasureConfig()


@dataclass(frozen=True)
class MeasureResult:
    """A measure value together with how it was assembled.

    ``value == sqrt(norm_constant * term_sum)`` always holds, so the raw
    pair sum can be recovered without re-deriving the prefactor.
    """

    kind: MeasureKind
    value: float
    norm_constant: float
    term_sum: float


def check_measure_size(state: PureState) -> None:
    """Refuse a state whose total dimension exceeds ``MAX_MEASURE_DIM``.

    Called before validation, so an oversized input costs no more than
    reading its dims.
    """
    if state.total_dim > MAX_MEASURE_DIM:
        raise TooLargeError(
            f"total dimension {state.total_dim} exceeds the measure guard of {MAX_MEASURE_DIM}"
        )


def _finish(kind: MeasureKind, cfg: MeasureConfig, term_sum: float) -> MeasureResult:
    value = math.sqrt(cfg.norm_constant * term_sum)
    return MeasureResult(kind, value, cfg.norm_constant, term_sum)


def measure_rows(
    kind: MeasureKind, rows: np.ndarray, dims, cfg: MeasureConfig
) -> list[MeasureResult]:
    """The ``kind`` measure of each row of a ``(T, prod(dims))`` stack of
    flat amplitude vectors over ``dims``.

    The bipartite term sum is the residual of split {1}; the
    multipartite one is ``2 * sum_j`` of the singleton residuals, added
    in slot order.  Each split is unfolded once for the whole stack.
    Trusts its input: the caller has already checked the arity, the size
    guard and the norms.  :func:`bipartite_concurrence`,
    :func:`multipartite_measure` and the invariance experiment's
    re-measure all end here, so each quantity has one implementation.
    """
    if kind is MeasureKind.BIPARTITE_CONCURRENCE:
        slots, weight = [0], 1.0
    else:
        slots, weight = range(len(dims)), 2.0
    residuals = _kernels.split_residuals(rows, dims, [[j] for j in slots])
    sums = np.zeros(len(rows))
    for column in residuals.T:
        sums += column
    return [_finish(kind, cfg, weight * float(total)) for total in sums]


def bipartite_concurrence(
    state: PureState,
    cfg: MeasureConfig = DEFAULT_CONFIG,
) -> MeasureResult:
    """Concurrence of a two-subsystem pure state.

    ``term_sum`` adds the squared moduli of all pairwise row wedges of
    the amplitude matrix, i.e. all squared 2x2 minors counted twice.
    The value is zero exactly on product states and reaches
    ``sqrt(norm_constant * (1 - 1/min(N1, N2)))`` on maximally
    entangled ones.

    Parameters
    ----------
    state : PureState
        Two-subsystem state; refused otherwise.
    cfg : MeasureConfig
        Norm constant and normalization tolerance.

    Raises
    ------
    WrongArityError
        If the state does not have exactly two subsystems.
    TooLargeError
        If the total dimension exceeds 4096 (the minor sum is quadratic
        in it).
    NotNormalizedError
        If the squared norm is off by more than ``cfg.tol``; rescale
        with :func:`~entwedge.states.normalize` first to accept it.
    """
    if state.num_subsystems != 2:
        raise WrongArityError(
            f"bipartite concurrence needs 2 subsystems, got {state.num_subsystems}"
        )
    check_measure_size(state)
    validate(state, cfg.tol)
    return measure_rows(
        MeasureKind.BIPARTITE_CONCURRENCE, state.amplitudes[None], state.dims, cfg
    )[0]


def pair_qubit_concurrence(
    state: PureState,
    cfg: MeasureConfig = DEFAULT_CONFIG,
) -> MeasureResult:
    """Two-qubit closed form ``2 |a_00 a_11 - a_10 a_01|`` (at the default
    norm constant).

    Agrees with :func:`bipartite_concurrence` on dims (2, 2) to within
    rounding: the vectorized kernel may contract multiplies differently
    and land one ulp away.
    """
    if state.dims != (2, 2):
        raise WrongDimsError(f"pair-qubit concurrence needs dims (2, 2), got {state.dims}")
    validate(state, cfg.tol)
    a = state.amplitudes
    det = a[0] * a[3] - a[2] * a[1]
    term_sum = 2.0 * (det.real * det.real + det.imag * det.imag)
    return _finish(MeasureKind.BIPARTITE_CONCURRENCE, cfg, term_sum)


def pair_coefficient(state: PureState, K, L) -> complex:
    """Product ``a_K a_L`` of two amplitudes picked by multi-indices."""
    return complex(state.tensor[_checked_index(state, K)] * state.tensor[_checked_index(state, L)])


def swapped_wedge_coefficient(state: PureState, K, L, j: int) -> complex:
    """Antisymmetrized product ``a_K a_L - a_K' a_L'`` where the primed
    multi-indices exchange their entries in slot ``j`` (1-based).

    Zero by construction whenever ``K[j] == L[j]``.
    """
    K = _checked_index(state, K)
    L = _checked_index(state, L)
    j = require_int(j, IndexOutOfRangeError, "slot")
    if not 1 <= j <= state.num_subsystems:
        raise IndexOutOfRangeError(f"slot {j} not in 1..{state.num_subsystems}")
    ax = j - 1
    Ks = K[:ax] + (L[ax],) + K[ax + 1:]
    Ls = L[:ax] + (K[ax],) + L[ax + 1:]
    t = state.tensor
    return complex(t[K] * t[L] - t[Ks] * t[Ls])


def _checked_index(state: PureState, K) -> tuple[int, ...]:
    K = tuple(require_int(x, IndexOutOfRangeError, "multi-index") for x in K)
    if len(K) != state.num_subsystems:
        raise IndexOutOfRangeError(
            f"multi-index {K} has {len(K)} entries for {state.num_subsystems} subsystems"
        )
    for ax, (x, n) in enumerate(zip(K, state.dims)):
        if not 0 <= x < n:
            raise IndexOutOfRangeError(f"index {x} out of range for slot {ax + 1} (dim {n})")
    return K


def multipartite_measure(
    state: PureState,
    cfg: MeasureConfig = DEFAULT_CONFIG,
) -> MeasureResult:
    """Wedge measure over all multi-index pairs and all slots.

    ``term_sum = sum_K sum_L sum_j |a_K a_L - a_K' a_L'|^2`` with the
    slot-j entries exchanged in the primed pair, both multi-indices
    ranging over the full index grid independently.  The value vanishes
    exactly on full product states and on two subsystems equals twice
    the bipartite concurrence.

    Parameters
    ----------
    state : PureState
        At least two subsystems, total dimension at most 4096.
    cfg : MeasureConfig
        Norm constant and normalization tolerance.

    Raises
    ------
    WrongArityError
        On fewer than two subsystems.
    TooLargeError
        If the total dimension exceeds 4096 (the pair sum is quadratic
        in it).
    NotNormalizedError
        If the squared norm is off by more than ``cfg.tol``; rescale
        with :func:`~entwedge.states.normalize` first to accept it.
    """
    if state.num_subsystems < 2:
        raise WrongArityError(
            f"multipartite measure needs at least 2 subsystems, got {state.num_subsystems}"
        )
    check_measure_size(state)
    validate(state, cfg.tol)
    return measure_rows(MeasureKind.MULTIPARTITE_E, state.amplitudes[None], state.dims, cfg)[0]


def resolve_measure(selector: str, num_subsystems: int):
    """Map a selector string to a measure function.

    ``auto`` picks the bipartite concurrence on two subsystems and the
    multipartite measure otherwise.
    """
    if selector == "auto":
        selector = "bipartite" if num_subsystems == 2 else "multipartite"
    if selector == "bipartite":
        return bipartite_concurrence
    if selector == "multipartite":
        return multipartite_measure
    raise ValueError(f"unknown measure selector {selector!r}")


def tripartite_measure(
    state: PureState,
    cfg: MeasureConfig = DEFAULT_CONFIG,
) -> MeasureResult:
    """Three-subsystem measure written out as three explicit slot terms.

    Organized differently from the generic pair-sum kernel on purpose:
    the three contributions (first, second, third slot exchanged) are
    accumulated from broadcast amplitude products, and the result must
    agree with :func:`multipartite_measure` to within 1e-12.
    """
    if state.num_subsystems != 3:
        raise WrongArityError(
            f"tripartite measure needs 3 subsystems, got {state.num_subsystems}"
        )
    check_measure_size(state)
    validate(state, cfg.tol)
    A = state.tensor
    D = A.size

    # Slot j's term is a[k] a[l] - a[k'] a[l'] with the slot-j entries of
    # k and l exchanged: a transpose of axes j and j + 3 of the broadcast
    # product.  Chunking runs along a slot the exchange never touches,
    # the third (or the first, for j = 2).
    term_sum = 0.0
    for j in range(3):
        ax = 0 if j == 2 else 2
        n = A.shape[ax]
        step = max(1, _CHUNK_ENTRIES // max(1, D * (D // n)))
        perm = list(range(6))
        perm[j], perm[j + 3] = j + 3, j
        term = 0.0
        for lo in range(0, n, step):
            part = A[(slice(None),) * ax + (slice(lo, lo + step),)]
            prod = part[:, :, :, None, None, None] * A[None, None, None, :, :, :]
            diff = prod - prod.transpose(perm)
            term += float(np.sum(diff.real ** 2 + diff.imag ** 2))
        term_sum += term  # the three terms in slot order
    return _finish(MeasureKind.MULTIPARTITE_E, cfg, term_sum)
