"""Dense pure states, their unfoldings, and bipartitions.

A pure state of m subsystems with dimensions ``(N_1, ..., N_m)`` is stored
as a flat complex amplitude vector of length ``N_1 * ... * N_m`` in
row-major order (the first subsystem's index varies slowest).

Conventions used across the package:

* basis indices inside a multi-index are 0-based, so a qubit pair ranges
  over ``(0, 0) .. (1, 1)``;
* subsystem labels are 1-based, so a three-party state has subsystems
  1, 2, 3.  Labels appear in :class:`Bipartition` and everywhere a
  caller names a subsystem; :meth:`Bipartition.left_axes` turns them
  into the 0-based slots that :func:`unfold` takes.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NotNormalizedError, TooLargeError, ValidationError

# Desk-scale guards: beyond either bound the dense representation stops
# being a sensible tool, so constructing the state fails loudly.
MAX_SUBSYSTEMS = 8
MAX_TOTAL_DIM = 2 ** 20

DEFAULT_NORM_TOL = 1e-9


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
        size = shown(total, "of {} bits")
        raise TooLargeError(f"total dimension {size} exceeds the guard of {MAX_TOTAL_DIM}")


def _subsystem_count(value, where: str) -> int:
    """``value`` as the subsystem count of a bipartition: an integer
    from 2 to ``MAX_SUBSYSTEMS``, checked before any label is read."""
    m = require_int(value, ValidationError, where)
    if m < 2:
        raise ValidationError(f"need at least 2 subsystems, got {shown(m)}")
    if m > MAX_SUBSYSTEMS:  # named without its digits, which may not print
        raise TooLargeError(f"{where} exceeds the guard of {MAX_SUBSYSTEMS} subsystems")
    return m


def shown(value, huge: str = "an integer of {} bits") -> str:
    """``repr(value)`` for a refusal message.  Where Python will not
    print a number that long (past 4300 digits by default), an integer
    reads as ``huge`` filled in with its bit count, anything else by its
    type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return huge.format(value.bit_length())
        return f"a {type(value).__name__} too long to print"


def require_int(value, error: type[Exception], where: str) -> int:
    """``value`` as a Python int if it is a Python or numpy integer other
    than a bool.  Anything else, a float included, raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{where}: expected an integer, got {shown(value)}")
    return operator.index(value)


@dataclass(frozen=True, eq=False)
class PureState:
    """Immutable dense pure state, compared and hashed by identity.

    Parameters
    ----------
    dims : sequence of int
        Subsystem dimensions ``(N_1, ..., N_m)``, each at least 1.
    amplitudes : array_like
        Flat complex amplitude vector of length ``prod(dims)``,
        row-major over the multi-index.  Stored as a read-only copy.

    Raises
    ------
    ValidationError
        If a dim is not a positive integer, the amplitudes are not
        numbers numpy reads as complex (an integer too large for a float
        included) or their count does not equal ``prod(dims)``.
    TooLargeError
        If ``m > 8`` or ``prod(dims) > 2**20``.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(require_int(n, ValidationError, "dims") for n in self.dims)
        if len(dims) == 0 or any(n < 1 for n in dims):
            raise ValidationError(f"dims must be positive, got {shown(dims)}")
        check_size_guards(dims)
        total = math.prod(dims)
        try:
            amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        except OverflowError:
            raise ValidationError("an amplitude is too large for a float") from None
        except (TypeError, ValueError) as exc:  # text, ragged lists, other objects
            raise ValidationError(f"amplitudes must be complex numbers: {exc}") from None
        if amps.size != total:
            raise ValidationError(f"got {amps.size} amplitudes for dims {dims} (need {total})")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)

    @property
    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amplitudes.reshape(self.dims)


def _scaled(amplitudes: np.ndarray) -> tuple[np.ndarray, int]:
    """``(x, e)``: the flat complex ``amplitudes`` times ``2**-e``, which
    is exact, with ``e`` putting the largest real or imaginary part in
    [0.5, 1), so the squared norm of ``x``, from 1/4 to twice its length,
    neither overflows nor underflows.  ``e`` is 0 when every amplitude
    is zero or one is not finite."""
    parts = np.ascontiguousarray(amplitudes).view(np.float64)
    exponent = int(np.frexp(np.max(np.abs(parts)))[1])
    return np.ldexp(parts, -exponent).view(np.complex128), exponent


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """Squared 2-norms along the last axis, in numpy's pairwise sums:
    BLAS would split a long row by thread count, rounding differently."""
    return np.sum(np.abs(rows) ** 2, axis=-1)


def _norm(amplitudes: np.ndarray) -> float:
    """The 2-norm of flat complex ``amplitudes``, the square root of
    :func:`_sq_norms` taken on them :func:`_scaled`, so it holds the
    digits of one as small as 1e-200; ``inf`` past the float range."""
    scaled, exponent = _scaled(amplitudes)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sqrt(_sq_norms(scaled)), exponent))


def sparse_state(dims, entries) -> PureState:
    """Dense state of ``dims`` holding ``entries``, a ``{multi-index:
    amplitude}`` map, and zero elsewhere.  Callers check the indices and
    run :func:`check_size_guards` first."""
    vector = np.zeros(math.prod(dims), dtype=np.complex128)
    multi = np.array(list(entries), dtype=np.intp).reshape(-1, len(dims))
    vector[np.ravel_multi_index(multi.T, dims)] = list(entries.values())
    return PureState(tuple(dims), vector)


@dataclass(frozen=True)
class Bipartition:
    """One side of a split of subsystems {1, ..., total} into two blocks.

    ``left`` is kept sorted and must be a nonempty proper subset.  The
    canonical representative of a split is the smaller side, with ties
    broken by lexicographic order (so it always contains subsystem 1).
    ``total`` past ``MAX_SUBSYSTEMS`` is a :class:`TooLargeError`, read
    before ``left``; any other bad argument a :class:`ValidationError`.
    """

    left: tuple[int, ...]
    total: int

    def __post_init__(self):
        total = _subsystem_count(self.total, "total")
        left = tuple(sorted(require_int(x, ValidationError, "left") for x in self.left))
        if len(left) == 0 or len(left) >= total:
            raise ValidationError(
                f"left side {shown(left)} must be a nonempty proper subset of 1..{total}"
            )
        if len(set(left)) != len(left):
            raise ValidationError(f"duplicate subsystem labels in {shown(left)}")
        if left[0] < 1 or left[-1] > total:
            raise ValidationError(f"labels in {shown(left)} must lie in 1..{total}")
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

    def left_axes(self, m: int) -> list[int]:
        """The left side's 0-based slots in a state of ``m`` subsystems."""
        if self.total != m:
            raise ValidationError(f"partition of {self.total} subsystems applied to {shown(m)}")
        return [j - 1 for j in self.left]

    def __str__(self) -> str:
        return "{" + ",".join(str(j) for j in self.left) + "}"


def validate(state: PureState) -> None:
    """Check that the squared norm is within ``DEFAULT_NORM_TOL`` of 1.

    The amplitude-count invariant is enforced by the ``PureState``
    constructor itself, so only normalization remains to verify here.

    Raises
    ------
    NotNormalizedError
        Carrying the actual norm unless ``|sum |a|^2 - 1|`` is at most
        ``DEFAULT_NORM_TOL``, so a non-finite amplitude is refused too.
    """
    with np.errstate(over="ignore"):  # inf fails the check like any misfit
        sq = _sq_norms(state.amplitudes)
    # written as "not <=" because every comparison with NaN is False
    if not abs(sq - 1.0) <= DEFAULT_NORM_TOL:
        raise NotNormalizedError(_norm(state.amplitudes), DEFAULT_NORM_TOL)


def normalize(state: PureState) -> PureState:
    """Return the state scaled to unit norm.

    The amplitudes are first scaled by an exact power of two that brings
    the largest part near 1, so a state as small as 1e-200 or as large
    as 1e200 normalizes.  Where no square overflows or underflows, the
    result is bitwise ``a / sqrt(_sq_norms(a))``.

    Raises
    ------
    ValidationError
        If every amplitude is zero, or the norm is not finite (a NaN or
        infinite amplitude).
    """
    scaled, _ = _scaled(state.amplitudes)
    nrm = float(np.sqrt(_sq_norms(scaled)))
    if nrm == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    if not math.isfinite(nrm):
        raise ValidationError(f"cannot normalize a state of norm {nrm!r}")
    return PureState(state.dims, scaled / nrm)


def unfold(rows: np.ndarray, dims, left_axes) -> np.ndarray:
    """Unfold a ``(T, prod(dims))`` stack of amplitude rows into a
    contiguous ``(T, r, c)`` stack of matrices: rows over the 0-based
    slots ``left_axes`` (row-major, in that order), columns over the
    other slots in increasing order.  The one place amplitudes are
    reordered into a matrix.  Trusts its arguments."""
    left_axes = list(left_axes)
    right_axes = [ax for ax in range(len(dims)) if ax not in left_axes]
    count = len(rows)
    r = math.prod(dims[ax] for ax in left_axes)
    perm = [0] + [ax + 1 for ax in left_axes + right_axes]
    tensor = rows.reshape((count,) + tuple(dims)).transpose(perm)
    return np.ascontiguousarray(tensor.reshape(count, r, math.prod(dims) // r))


def enumerate_bipartitions(m: int) -> list[Bipartition]:
    """All canonical bipartitions of subsystems 1..m, 2^(m-1) - 1 in total.

    Ordered by left-side size, then lexicographically, e.g. for m = 4:
    {1}, {2}, {3}, {4}, {1,2}, {1,3}, {1,4}.  ``m`` is refused as a
    :class:`Bipartition`'s ``total`` is, before any split is formed.
    """
    m = _subsystem_count(m, "m")
    out = []
    for size in range(1, m // 2 + 1):
        for combo in itertools.combinations(range(1, m + 1), size):
            part = Bipartition(combo, m)
            if part.is_canonical:
                out.append(part)
    return out
