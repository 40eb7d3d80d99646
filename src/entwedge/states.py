"""Dense pure states, marginals, and bipartitions.

A pure state of m subsystems with dimensions ``(N_1, ..., N_m)`` is stored
as a flat complex amplitude vector of length ``N_1 * ... * N_m`` in
row-major order (the first subsystem's index varies slowest).

Conventions used across the package:

* basis indices inside a multi-index are 0-based, so a qubit pair ranges
  over ``(0, 0) .. (1, 1)``;
* subsystem labels are 1-based, so a three-party state has subsystems
  1, 2, 3.  Labels appear in :class:`Bipartition`, ``partial_trace`` and
  everywhere a caller names a subsystem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidPartitionError,
    LengthMismatchError,
    NotNormalizedError,
    TooLargeError,
    ValidationError,
    ZeroStateError,
)

# Desk-scale guards: beyond either bound the dense representation stops
# being a sensible tool, so constructing the state fails loudly.
MAX_SUBSYSTEMS = 8
MAX_TOTAL_DIM = 2 ** 20

DEFAULT_NORM_TOL = 1e-9

# Componentwise tolerances for the reduced-density-matrix invariants.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9


def check_size_guards(dims) -> None:
    """Refuse more than ``MAX_SUBSYSTEMS`` subsystems or a total dimension
    above ``MAX_TOTAL_DIM``.

    Reads only the dims, so parsers run it before they allocate or
    expand anything.
    """
    if len(dims) > MAX_SUBSYSTEMS:
        raise TooLargeError(
            f"{len(dims)} subsystems exceeds the guard of {MAX_SUBSYSTEMS}"
        )
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        raise TooLargeError(
            f"total dimension {total} exceeds the guard of {MAX_TOTAL_DIM}"
        )


def is_finite(value) -> bool:
    """True for a finite real number.  An integer past the float range
    counts as infinite, where ``math.isfinite`` would raise on it."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _frozen_complex_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Immutable dense pure state.

    Parameters
    ----------
    dims : sequence of int
        Subsystem dimensions ``(N_1, ..., N_m)``, each at least 1.
    amplitudes : array_like
        Flat complex amplitude vector of length ``prod(dims)``,
        row-major over the multi-index.  Stored as a read-only copy.

    Raises
    ------
    LengthMismatchError
        If the amplitude count does not equal ``prod(dims)``.
    TooLargeError
        If ``m > 8`` or ``prod(dims) > 2**20``.
    ValidationError
        If an amplitude is an integer too large for a float.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) == 0 or any(n < 1 for n in dims):
            raise InvalidPartitionError(f"dims must be positive, got {dims}")
        check_size_guards(dims)
        total = math.prod(dims)
        try:
            amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        except OverflowError:
            raise ValidationError("an amplitude is too large for a float") from None
        if amps.size != total:
            raise LengthMismatchError(
                f"got {amps.size} amplitudes for dims {dims} (need {total})"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", _frozen_complex_array(amps))

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return self.amplitudes.size

    @property
    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amplitudes.reshape(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced density matrix of one subsystem.

    Hermiticity is checked componentwise to 1e-12 and the trace to 1e-9
    on construction; positive semidefiniteness is a property of how the
    matrix is produced and is exercised in the tests, not re-checked here.
    """

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = int(self.dim)
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.shape != (dim, dim):
            raise DimensionMismatchError(
                f"expected a {dim}x{dim} matrix, got shape {entries.shape}"
            )
        skew = float(np.max(np.abs(entries - entries.conj().T)))
        if skew > HERMITICITY_TOL:
            raise ValidationError(
                f"matrix deviates from Hermitian by {skew:.3e} (tol {HERMITICITY_TOL:g})"
            )
        tr = complex(np.trace(entries))
        if abs(tr - 1.0) > TRACE_TOL:
            raise NotNormalizedError(abs(tr), TRACE_TOL)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", _frozen_complex_array(entries, (dim, dim)))


@dataclass(frozen=True)
class Bipartition:
    """One side of a split of subsystems {1, ..., total} into two blocks.

    ``left`` is kept sorted and must be a nonempty proper subset.  The
    canonical representative of a split is the smaller side, with ties
    broken by lexicographic order (so it always contains subsystem 1).
    """

    left: tuple[int, ...]
    total: int

    def __post_init__(self):
        total = int(self.total)
        left = tuple(sorted(int(x) for x in self.left))
        if total < 2:
            raise InvalidPartitionError(f"need at least 2 subsystems, got {total}")
        if len(left) == 0 or len(left) >= total:
            raise InvalidPartitionError(
                f"left side {left} must be a nonempty proper subset of 1..{total}"
            )
        if len(set(left)) != len(left):
            raise InvalidPartitionError(f"duplicate subsystem labels in {left}")
        if left[0] < 1 or left[-1] > total:
            raise InvalidPartitionError(f"labels in {left} must lie in 1..{total}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "total", total)

    @property
    def right(self) -> tuple[int, ...]:
        members = set(self.left)
        return tuple(j for j in range(1, self.total + 1) if j not in members)

    @property
    def is_canonical(self) -> bool:
        other = self.right
        if len(self.left) != len(other):
            return len(self.left) < len(other)
        return self.left < other

    def canonical(self) -> "Bipartition":
        if self.is_canonical:
            return self
        return Bipartition(self.right, self.total)

    def __str__(self) -> str:
        return "{" + ",".join(str(j) for j in self.left) + "}"


def validate(state: PureState, tol: float = DEFAULT_NORM_TOL) -> None:
    """Check that the squared norm is within ``tol`` of 1.

    The amplitude-count invariant is enforced by the ``PureState``
    constructor itself, so only normalization remains to verify here.

    Raises
    ------
    ValidationError
        If ``tol`` is negative or not finite, before the norm is read.
    NotNormalizedError
        Carrying the actual norm unless ``|sum |a|^2 - 1| <= tol``, so a
        non-finite amplitude is refused too.
    """
    if not (is_finite(tol) and tol >= 0):
        raise ValidationError(f"tol must be nonnegative and finite, got {tol!r}")
    check_unit_norms(state.amplitudes[None], tol)


def check_unit_norms(rows: np.ndarray, tol: float) -> None:
    """Refuse a ``(T, D)`` stack of amplitude rows unless every row's
    squared norm is within ``tol`` of 1, in one reduction over the stack.

    The first failing row raises :class:`NotNormalizedError` with its
    norm.  ``tol`` is trusted here; :func:`validate` checks it.
    """
    sq = np.sum(np.abs(rows) ** 2, axis=1)
    # written as "not <=" because every comparison with NaN is False
    bad = np.flatnonzero(~(np.abs(sq - 1.0) <= tol))
    if bad.size:
        raise NotNormalizedError(math.sqrt(sq[bad[0]]), tol)


def normalize(state: PureState) -> PureState:
    """Return the state scaled to unit norm.

    Raises
    ------
    ZeroStateError
        If every amplitude is zero.
    ValidationError
        If the norm is not finite (a NaN or infinite amplitude, or an
        overflow).
    """
    nrm = state.norm()
    if nrm == 0.0:
        raise ZeroStateError("cannot normalize the zero vector")
    if not math.isfinite(nrm):
        raise ValidationError(f"cannot normalize a state of norm {nrm!r}")
    return PureState(state.dims, state.amplitudes / nrm)


def matricize(state: PureState, part: Bipartition) -> np.ndarray:
    """Unfold the state into a matrix across a bipartition.

    Row ``r`` enumerates the left subsystems' joint index (sorted labels,
    row-major) and column ``c`` the complementary subsystems' joint index,
    so entry ``(r, c)`` is the amplitude at the reassembled multi-index.
    """
    if part.total != state.num_subsystems:
        raise InvalidPartitionError(
            f"partition of {part.total} subsystems applied to {state.num_subsystems}"
        )
    left_axes = [j - 1 for j in part.left]
    right_axes = [j - 1 for j in part.right]
    rows = math.prod(state.dims[ax] for ax in left_axes)
    reordered = np.transpose(state.tensor, left_axes + right_axes)
    return np.ascontiguousarray(reordered.reshape(rows, -1))


def partial_trace(state: PureState, keep: int) -> DensityMatrix:
    """Reduced density matrix of subsystem ``keep`` (1-based label).

    For a normalized input the result is Hermitian with unit trace.
    """
    if not 1 <= keep <= state.num_subsystems:
        raise InvalidPartitionError(
            f"subsystem {keep} not in 1..{state.num_subsystems}"
        )
    if state.num_subsystems == 1:
        vec = state.amplitudes
        return DensityMatrix(state.dims[0], np.outer(vec, vec.conj()))
    m = matricize(state, Bipartition((keep,), state.num_subsystems))
    return DensityMatrix(state.dims[keep - 1], m @ m.conj().T)


def purity(rho: DensityMatrix) -> float:
    """``tr(rho^2)`` as the squared Frobenius norm of a Hermitian matrix."""
    return float(np.sum(np.abs(rho.entries) ** 2))


def enumerate_bipartitions(m: int) -> list[Bipartition]:
    """All canonical bipartitions of subsystems 1..m, 2^(m-1) - 1 in total.

    Ordered by left-side size, then lexicographically, e.g. for m = 4:
    {1}, {2}, {3}, {4}, {1,2}, {1,3}, {1,4}.
    """
    if m < 2:
        raise InvalidPartitionError(f"need at least 2 subsystems, got {m}")
    out = []
    for size in range(1, m // 2 + 1):
        for combo in itertools.combinations(range(1, m + 1), size):
            part = Bipartition(combo, m)
            if part.is_canonical:
                out.append(part)
    return out
