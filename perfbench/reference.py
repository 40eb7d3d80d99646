"""Seeded state builders and independent reference values.

Everything here is computed without entwedge's kernels, so a fast
kernel that loses digits disagrees with it.  The references rest on the
purity identities (Rungta et al., PRA 64, 042315 (2001); Meyer and
Wallach, J. Math. Phys. 43, 4273 (2002)):

    C^2 = c * (1 - tr rho^2)             two subsystems
    E^2 = c * sum_j 2 * (1 - tr rho_j^2)  m subsystems

For a unit vector ``1 - tr rho^2 = (sum s)^2 - sum s^2 = 2 * e2(s)`` where
``s`` are the squared singular values of the unfolding across the split
and ``e2`` is their second elementary symmetric sum.  ``e2`` is a sum of
nonnegative products, added smallest first, so near-product residuals
keep their significant digits instead of cancelling to 0.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

# Perturbation size of the near-product kinds.  near3 lands far above
# the default separability threshold (1e-10), near9 far below it.
NEAR_EPS = {"near3": 1e-3, "near9": 1e-9}

# Agreement required between a reported residual or term sum and the
# reference.  near9 residuals are ~1e-18: both routes carry about
# u / eps ~ 1e-7 relative error there, so the bound is looser but still
# catches a value that cancelled to 0, went negative, or lost its digits.
RTOL = {"near9": 1e-4}
DEFAULT_RTOL = 1e-9
# A value whose reference is this small counts as exactly separable.
PRODUCT_ATOL = 1e-24


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def build_amplitudes(rng: np.random.Generator, dims, kind: str) -> np.ndarray:
    """Flat amplitude vector of one kind: "rand" (Haar-like random),
    "prod" (random product), "near3"/"near9" (product plus a 1e-3 or 1e-9
    random perturbation), "ghz" or "w"."""
    total = math.prod(dims)
    if kind == "rand":
        return unit_vector(rng, total)
    if kind == "prod":
        return reduce(np.kron, [unit_vector(rng, n) for n in dims])
    if kind in NEAR_EPS:
        base = reduce(np.kron, [unit_vector(rng, n) for n in dims])
        vec = base + NEAR_EPS[kind] * unit_vector(rng, total)
        return vec / np.linalg.norm(vec)
    vec = np.zeros(total, dtype=np.complex128)
    if kind == "ghz":
        for i in range(min(dims)):
            vec[np.ravel_multi_index((i,) * len(dims), dims)] = 1.0
    elif kind == "w":
        for j in range(len(dims)):
            idx = [0] * len(dims)
            idx[j] = 1
            vec[np.ravel_multi_index(tuple(idx), dims)] = 1.0
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    return vec / np.linalg.norm(vec)


def expected_separable(kind: str) -> bool:
    """Verdict every split must get, from how the state was built."""
    return kind in ("prod", "near9")


def e2_smallest_first(values) -> float:
    """Second elementary symmetric sum, nonnegative terms added smallest first."""
    total = 0.0
    prefix = 0.0
    for x in sorted(float(v) for v in values):
        total += x * prefix
        prefix += x
    return total


def split_e2(tensor: np.ndarray, left_axes) -> float:
    """``e2`` of the squared singular values of the unfolding that puts
    ``left_axes`` (0-based) on the rows."""
    left = list(left_axes)
    right = [ax for ax in range(tensor.ndim) if ax not in left]
    rows = math.prod(tensor.shape[ax] for ax in left)
    mat = np.transpose(tensor, left + right).reshape(rows, -1)
    sv = np.linalg.svd(mat, compute_uv=False)
    return e2_smallest_first(sv * sv)


def residual(tensor: np.ndarray, left_labels) -> float:
    """Reference separability residual, ``1 - tr rho^2`` of the left side."""
    return 2.0 * split_e2(tensor, [j - 1 for j in left_labels])


def bipartite_term_sum(tensor: np.ndarray) -> float:
    """Reference term sum with ``C^2 = c * term_sum``."""
    return 2.0 * split_e2(tensor, [0])


def multipartite_term_sum(tensor: np.ndarray) -> float:
    """Reference term sum with ``E^2 = c * term_sum``."""
    return sum(4.0 * split_e2(tensor, [j]) for j in range(tensor.ndim))


def auto_term_sum(tensor: np.ndarray) -> tuple[str, float]:
    """Measure kind and term sum that the ``auto`` selector picks."""
    if tensor.ndim == 2:
        return "bipartite_concurrence", bipartite_term_sum(tensor)
    return "multipartite_e", multipartite_term_sum(tensor)


def close(value: float, ref: float, kind: str = "rand") -> bool:
    """Agreement of a nonnegative quantity with its reference."""
    if not math.isfinite(value) or value < 0.0:
        return False
    if ref <= PRODUCT_ATOL:
        return value <= PRODUCT_ATOL
    return abs(value - ref) <= RTOL.get(kind, DEFAULT_RTOL) * ref


def value_close(value: float, term_sum_ref: float, norm_constant: float, kind: str) -> bool:
    """Agreement of ``sqrt(c * term_sum)`` with the reference term sum."""
    if not math.isfinite(value) or value < 0.0:
        return False
    return close(value * value / norm_constant, term_sum_ref, kind)


def reconstruction_error(amplitudes: np.ndarray, factors) -> float:
    """Distance from the factor product to the state, minimized over a
    global phase."""
    rebuilt = reduce(np.kron, [np.asarray(f) for f in factors])
    overlap = np.vdot(rebuilt, amplitudes)
    if overlap == 0:
        return float(np.linalg.norm(rebuilt))
    return float(np.linalg.norm(rebuilt - amplitudes * (overlap.conjugate() / abs(overlap))))
