"""Antisymmetrization of tensor grids and pairwise wedge products.

The alternation operator used here carries the 1/m! prefactor, so it is
a projection: applying it twice changes nothing.  The two-factor wedge
``wedge_pair`` deliberately does NOT divide by 2; with that convention
the squared norm of the wedge of two qubit rows is twice the squared
2x2 determinant, which is what the concurrence normalization expects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, LengthMismatchError, TooManyFactorsError
from .states import require_int

# Alternation sums over all m! slot permutations; past this many factors
# the sum is no longer a desk-scale computation.
MAX_ALT_FACTORS = 8


@dataclass(frozen=True)
class TensorGrid:
    """Immutable dense tensor with one axis per slot.

    Stored like a state: ``dims`` plus a flat row-major complex vector.
    """

    dims: tuple[int, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(require_int(n, LengthMismatchError, "dims") for n in self.dims)
        entries = np.asarray(self.entries, dtype=np.complex128).reshape(-1)
        if entries.size != math.prod(dims):
            raise LengthMismatchError(
                f"got {entries.size} entries for dims {dims}"
            )
        arr = entries.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", arr)

    @property
    def tensor(self) -> np.ndarray:
        return self.entries.reshape(self.dims)


@dataclass(frozen=True)
class Permutation:
    """Bijection on m slots, stored as the image tuple ``image[i] = p(i)``.

    Slots are 0-based here, matching basis indices elsewhere.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(require_int(x, LengthMismatchError, "image") for x in self.image)
        if sorted(image) != list(range(len(image))):
            raise LengthMismatchError(f"{image} is not a permutation of 0..{len(image) - 1}")
        object.__setattr__(self, "image", image)

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition ``(self * other)(i) = self(other(i))``."""
        return Permutation(tuple(self.image[other.image[i]] for i in range(len(other))))


def signature(p) -> int:
    """Sign of a permutation via its cycle decomposition.

    Accepts a :class:`Permutation` or any sequence forming an image tuple.
    Each cycle of length L contributes L - 1 transpositions.
    """
    image = p.image if isinstance(p, Permutation) else Permutation(tuple(p)).image
    seen = [False] * len(image)
    sign = 1
    for start in range(len(image)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = image[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _alt_grid(tensor: np.ndarray) -> np.ndarray:
    m = tensor.ndim
    acc = np.zeros_like(tensor, dtype=np.complex128)
    for image in itertools.permutations(range(m)):
        acc += signature(image) * np.transpose(tensor, image)
    return acc / math.factorial(m)


def alt(factors) -> TensorGrid:
    """Antisymmetrize over slots: ``(1/m!) sum_p sign(p) (slot permutation p)``.

    Parameters
    ----------
    factors : TensorGrid, ndarray, or sequence of 1-D vectors
        A grid is antisymmetrized in place over its axes.  A sequence of
        m vectors is first combined into their tensor product.  All slot
        dimensions must be equal, since permuting unequal slots is not
        well defined.

    Raises
    ------
    TooManyFactorsError
        If more than 8 slots are involved.
    DimensionMismatchError
        If the slot dimensions differ.
    """
    if isinstance(factors, TensorGrid):
        tensor = factors.tensor
    elif isinstance(factors, np.ndarray):
        tensor = np.asarray(factors, dtype=np.complex128)
    else:
        vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in factors]
        if not vecs:
            raise DimensionMismatchError("need at least one factor")
        if any(v.size != vecs[0].size for v in vecs):
            raise DimensionMismatchError(
                f"factor lengths {[v.size for v in vecs]} differ"
            )
        tensor = reduce(np.multiply.outer, vecs)
    if tensor.ndim > MAX_ALT_FACTORS:
        raise TooManyFactorsError(
            f"{tensor.ndim} slots exceeds the factorial guard of {MAX_ALT_FACTORS}"
        )
    if len(set(tensor.shape)) > 1:
        raise DimensionMismatchError(f"slot dims {tensor.shape} must all be equal")
    return TensorGrid(tensor.shape, _alt_grid(tensor))


def wedge_pair(v, w) -> TensorGrid:
    """Two-slot wedge ``v (x) w - w (x) v`` with no 1/2 factor.

    For 2-vectors the four entries are ``(0, d, -d, 0)`` with
    ``d = v[0] w[1] - w[0] v[1]``.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    if v.size != w.size:
        raise DimensionMismatchError(f"vector lengths {v.size} and {w.size} differ")
    grid = np.outer(v, w) - np.outer(w, v)
    return TensorGrid((v.size, v.size), grid)


def grid_norm_sq(grid: TensorGrid) -> float:
    """Sum of squared moduli of all grid entries."""
    entries = grid.entries if isinstance(grid, TensorGrid) else np.asarray(grid)
    return float(np.sum(entries.real ** 2 + entries.imag ** 2))
