"""Entanglement measures built from split residuals.

Every measure here has the shape ``value = sqrt(norm_constant * term_sum)``
where ``term_sum`` is a sum of split residuals: squared 2x2 minors of the
state unfolded across a split, the purity form ``1 - tr rho^2`` of
Rungta et al. (PRA 64, 042315 (2001)).  For two subsystems it is the
residual of split {1}.  For m subsystems it runs over every pair of
multi-indices ``K, L`` and every slot ``j``, comparing ``a_K a_L``
against the product with the j-th slot entries exchanged; each such
difference is a minor of the slot-j unfolding, met once from each side,
so the sum is twice the singleton residuals.  All of them come from
:func:`entwedge._kernels.split_residuals` through :func:`measure_rows`,
which returns the term sums of a stack of states as plain numbers; both
public measures read it through one private path (arity, the kernel's
price for the splits :func:`_splits` names, validation, term sum,
result), and the invariance experiment reads it directly for each chunk
of rotated states.

The prefactor is the constant ``NORM_CONSTANT = 2``, reported back in
every result as ``norm_constant``; any other prefactor N is
``sqrt(N * term_sum)`` of the reported term sum.  Input is refused
unless its squared norm is within ``DEFAULT_NORM_TOL`` of 1.

For a normalized two-qubit state the bipartite value reduces to
``2 |a_00 a_11 - a_10 a_01|``, and the multipartite value on two
subsystems is exactly twice the bipartite one, bit for bit, since both
read the one split there.  So there is no measure selector: the command
line and the invariance experiment both take C on two subsystems and E
otherwise, from one private helper, and E on two subsystems is
``sqrt(8 * term_sum)`` of C's term sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import ValidationError
from .states import PureState, validate

# The prefactor under every measure's square root.
NORM_CONSTANT = 2.0


class MeasureKind(Enum):
    BIPARTITE_CONCURRENCE = "bipartite_concurrence"
    MULTIPARTITE_E = "multipartite_e"


@dataclass(frozen=True)
class MeasureResult:
    """A measure value together with how it was assembled.

    ``norm_constant`` is always ``NORM_CONSTANT``, and
    ``value == sqrt(norm_constant * term_sum)`` holds bitwise, so the raw
    pair sum can be recovered without re-deriving the prefactor.
    """

    kind: MeasureKind
    value: float
    norm_constant: float
    term_sum: float


def _splits(m: int) -> list:
    """The 0-based singleton splits either measure reads on ``m``
    subsystems: every slot's, except on two subsystems, where split {2}
    is split {1} seen from the other side, so only split {1} is read."""
    return [[0]] if m == 2 else [[j] for j in range(m)]


def _values(term_sums):
    """``sqrt(NORM_CONSTANT * term_sum)`` of one term sum or elementwise
    over an array of them: one IEEE multiply and one correctly rounded
    sqrt, so an array entry is bitwise the scalar result."""
    return np.sqrt(NORM_CONSTANT * term_sums)


def measure_rows(kind: MeasureKind, rows: np.ndarray, dims) -> np.ndarray:
    """The ``(T,)`` term sums of the ``kind`` measure of each row of a
    ``(T, prod(dims))`` stack of flat amplitude vectors over ``dims``.

    The bipartite term sum is the residual of split {1}; the
    multipartite one is ``2 * sum_j`` of the singleton residuals, added
    in slot order.  On two subsystems the one split read is counted
    twice, which makes the multipartite value bitwise twice the
    bipartite one.  Each split is unfolded once for the whole stack.
    Trusts its input, a validated state or, in ``lu``, that state rotated
    by checked gates, of checked arity and size.  :func:`_measure`, behind
    both public measures, and the invariance experiment's re-measure both
    end here, so each quantity has one implementation.
    """
    if kind is MeasureKind.BIPARTITE_CONCURRENCE:
        weight = 1.0
    else:
        weight = 4.0 if len(dims) == 2 else 2.0
    residuals = _kernels.split_residuals(rows, dims, _splits(len(dims)))
    sums = np.zeros(len(rows))
    for column in residuals.T:
        sums += column
    return weight * sums


def _measure(kind: MeasureKind, state: PureState) -> MeasureResult:
    """The ``kind`` measure of ``state``, refusing in this order the
    wrong arity, a kernel price past the measure guard and an
    unnormalized state."""
    m = state.num_subsystems
    if kind is MeasureKind.BIPARTITE_CONCURRENCE and m != 2:
        raise ValidationError(f"bipartite concurrence needs 2 subsystems, got {m}")
    if m < 2:
        raise ValidationError(f"multipartite measure needs at least 2 subsystems, got {m}")
    _kernels.check_split_work(state.dims, _splits(m))
    validate(state)
    term_sum = float(measure_rows(kind, state.amplitudes[None], state.dims)[0])
    return MeasureResult(kind, float(_values(term_sum)), NORM_CONSTANT, term_sum)


def bipartite_concurrence(state: PureState) -> MeasureResult:
    """Concurrence of a two-subsystem pure state.

    ``term_sum`` adds the squared moduli of all pairwise row wedges of
    the amplitude matrix, i.e. all squared 2x2 minors counted twice.
    The value is zero exactly on product states and reaches
    ``sqrt(2 (1 - 1/min(N1, N2)))`` on maximally entangled ones.

    Parameters
    ----------
    state : PureState
        Two-subsystem state; refused otherwise.

    Raises
    ------
    ValidationError
        If the state does not have exactly two subsystems.
    TooLargeError
        If the minor sum takes more than ``_kernels.MAX_SPLIT_WORK``
        products, as on (212, 212) or (2, 31623).
    NotNormalizedError
        If the squared norm is off by more than ``DEFAULT_NORM_TOL``;
        rescale with :func:`~entwedge.states.normalize` first to accept
        it.
    """
    return _measure(MeasureKind.BIPARTITE_CONCURRENCE, state)


def multipartite_measure(state: PureState) -> MeasureResult:
    """Wedge measure over all multi-index pairs and all slots.

    ``term_sum = sum_K sum_L sum_j |a_K a_L - a_K' a_L'|^2`` with the
    slot-j entries exchanged in the primed pair, both multi-indices
    ranging over the full index grid independently.  The value vanishes
    exactly on full product states and on two subsystems equals twice
    the bipartite concurrence.

    Parameters
    ----------
    state : PureState
        At least two subsystems.

    Raises
    ------
    ValidationError
        On fewer than two subsystems.
    TooLargeError
        If the singleton minor sums take more than
        ``_kernels.MAX_SPLIT_WORK`` products.
    NotNormalizedError
        If the squared norm is off by more than ``DEFAULT_NORM_TOL``;
        rescale with :func:`~entwedge.states.normalize` first to accept
        it.
    """
    return _measure(MeasureKind.MULTIPARTITE_E, state)


def _auto_measure(state: PureState) -> MeasureResult:
    """C on two subsystems, E otherwise.  On two subsystems E would
    only double C, so there is no choice to make there."""
    two = state.num_subsystems == 2
    kind = MeasureKind.BIPARTITE_CONCURRENCE if two else MeasureKind.MULTIPARTITE_E
    return _measure(kind, state)
