"""Haar-random local unitaries and the invariance experiment.

Randomness contract: every trial draws from its own substream, derived
from ``SeedSequence(entropy=seed, spawn_key=(trial,))`` feeding a PCG64
generator, so trial k is reproducible in isolation and independent of
how many trials run around it.  Normal variates come from an explicit
Box-Muller transform of uniform doubles rather than the generator's own
normal method, pinning the exact variate stream to this module instead
of to numpy internals.  A uniform double is ``(w >> 11) * 2**-53`` for a
raw 64-bit PCG64 word ``w``, which is what ``Generator.random`` returns
on PCG64.

The experiment itself applies one independent Haar unitary per
subsystem and reports how far the measure moves.  It asserts nothing
about the deviations; it only reports them.  Trials run in chunks.  The
only per-trial step is the seeding: each trial's PCG64 fills one row of
the chunk's raw-word buffer.  Everything after that runs once over the
chunk's stack of trials: the conversion to uniforms, Box-Muller per
slot, the QR factorization with its phase fix, the unitarity check, the
rotation and the norm check of the rotated states.  The re-measure then
calls the measure's own kernel on each rotated row.  Every step works
within one trial's numbers, so a trial's deviation is bitwise the same
whatever the chunk size, and equal to the single-trial path through
``haar_unitary``, ``apply_local`` and the public measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .measures import (
    DEFAULT_CONFIG,
    MeasureConfig,
    check_measure_size,
    measure_amplitudes,
    resolve_measure,
)
from .states import PureState, check_unit_norms, validate

UNITARITY_TOL = 1e-10

# Runs longer than this keep only the max deviation, not the full list.
PER_TRIAL_CAP = 10000

# Trials run in chunks holding at most this many complex entries (rotated
# states plus gates), so memory stays flat however large the state.
CHUNK_AMPLITUDES = 1 << 16


@dataclass(frozen=True)
class UnitaryGate:
    """Square matrix checked to be unitary within 1e-10 componentwise."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = int(self.dim)
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.shape != (dim, dim):
            raise DimensionMismatchError(
                f"expected a {dim}x{dim} matrix, got shape {entries.shape}"
            )
        _check_unitary(entries[None])
        arr = entries.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class InvarianceRun:
    """Outcome of one seeded invariance experiment."""

    seed: int
    trials: int
    measure_kind: str
    norm_constant: float
    baseline_value: float
    max_abs_deviation: float
    deviations: tuple | None


def _trial_bits(seed: int, trial: int) -> np.random.PCG64:
    """PCG64 for one trial's substream, independent of all others."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial),))
    return np.random.PCG64(seq)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator for one trial's substream, independent of all others."""
    return np.random.Generator(_trial_bits(seed, trial))


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Box-Muller along the last axis: the cosine normals of each row,
    then its sine normals.

    ``log1p(-u)`` keeps the argument strictly positive since ``u`` is
    drawn from [0, 1).
    """
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * math.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on uniform doubles."""
    pairs = (n + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    return _box_muller(u1, u2)[:n]


def _chunk_normals(seed: int, lo: int, count: int, dims) -> list:
    """The normals of trials ``lo .. lo + count - 1``, one ``(count, 2 n^2)``
    array per slot.

    Row t of slot j's array is bitwise ``standard_normals(rng, 2 n_j^2)``
    for ``rng = trial_rng(seed, lo + t)`` after the earlier slots' draws:
    each slot uses ``n_j^2`` uniforms for the radii, then ``n_j^2`` for
    the angles.
    """
    total = sum(2 * n * n for n in dims)
    raw = np.empty((count, total), dtype=np.uint64)
    for t in range(count):
        raw[t] = _trial_bits(seed, lo + t).random_raw(total)
    uniforms = (raw >> np.uint64(11)) * 2.0 ** -53
    normals = []
    start = 0
    for n in dims:
        sq = n * n
        normals.append(_box_muller(uniforms[:, start:start + sq],
                                   uniforms[:, start + sq:start + 2 * sq]))
        start += 2 * sq
    return normals


def _haar_stack(normals: np.ndarray, dim: int) -> np.ndarray:
    """Haar unitaries, one per row of ``normals``.

    Row t of ``normals`` (shape ``(T, 2 dim^2)``) holds the real parts
    and then the imaginary parts of a row-major complex Gaussian matrix,
    as drawn by :func:`haar_unitary`.  The ``(T, dim, dim)`` stack is
    factored as ``Z = QR`` in one call, and column k of each Q is
    multiplied by the phase ``r_kk / |r_kk|`` so that R's diagonal
    becomes real and positive; without this phase fix Q is not Haar
    distributed (Mezzadri, Notices AMS 54, 592 (2007)).  LAPACK
    factors each matrix on its own, so a matrix's result does not
    depend on what else is in the stack.
    """
    sq = dim * dim
    z = (normals[:, :sq] + 1j * normals[:, sq:]).reshape(-1, dim, dim)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _check_unitary(stack: np.ndarray) -> None:
    """Refuse a ``(T, n, n)`` stack unless every matrix is unitary within
    ``UNITARITY_TOL`` componentwise."""
    gram = np.matmul(stack.conj().transpose(0, 2, 1), stack)
    defect = float(np.max(np.abs(gram - np.eye(stack.shape[-1]))))
    if defect > UNITARITY_TOL:
        raise ValidationError(
            f"matrix deviates from unitary by {defect:.3e} (tol {UNITARITY_TOL:g})"
        )


def haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryGate:
    """Haar-distributed unitary from the QR factorization of a Gaussian
    matrix.

    An iid complex Gaussian matrix is factored as ``QR`` and each column
    of Q is multiplied by the phase of the matching diagonal entry of R,
    which makes the factorization unique and the sample Haar.
    """
    if dim < 1:
        raise DimensionMismatchError(f"dim must be positive, got {dim}")
    normals = standard_normals(rng, 2 * dim * dim)
    return UnitaryGate(dim, _haar_stack(normals[None], dim)[0])


def _rotate(amps: np.ndarray, dims, stacks) -> np.ndarray:
    """Rotate one state by T gate sets: copy t gets ``stacks[j][t]`` on
    slot j, for every slot.

    ``amps`` is the flat state; ``stacks[j]`` has shape ``(T, n_j, n_j)``.
    Returns the rotated amplitudes, shape ``(T, prod(dims))``.
    """
    count = len(stacks[0])
    psi = np.broadcast_to(amps, (count, amps.size))
    for j, (n, gates) in enumerate(zip(dims, stacks)):
        lead = math.prod(dims[:j])
        trail = math.prod(dims[j + 1:])
        psi = np.matmul(gates[:, None], psi.reshape(count, lead, n, trail))
    return psi.reshape(count, -1)


def apply_local(state: PureState, gates) -> PureState:
    """Apply one gate per subsystem, gate j acting on slot j alone."""
    gates = list(gates)
    if len(gates) != state.num_subsystems:
        raise DimensionMismatchError(
            f"got {len(gates)} gates for {state.num_subsystems} subsystems"
        )
    for j, gate in enumerate(gates):
        if gate.dim != state.dims[j]:
            raise DimensionMismatchError(
                f"gate {j + 1} has dim {gate.dim}, subsystem has dim {state.dims[j]}"
            )
    stacks = [gate.entries[None] for gate in gates]
    return PureState(state.dims, _rotate(state.amplitudes, state.dims, stacks)[0])


def _chunk_trials(dims) -> int:
    """Trials per chunk: as many as fit ``CHUNK_AMPLITUDES`` counting each
    trial's rotated state and gate entries, and at least one."""
    per_trial = math.prod(dims) + sum(n * n for n in dims)
    return max(1, CHUNK_AMPLITUDES // per_trial)


def invariance_experiment(
    state: PureState,
    trials: int = 1000,
    seed: int = 0,
    measure: str = "auto",
    cfg: MeasureConfig = DEFAULT_CONFIG,
) -> InvarianceRun:
    """Measure drift under per-subsystem Haar unitaries.

    Runs ``trials`` independent rounds; round k rotates every subsystem
    by a fresh Haar unitary drawn from substream k and records the
    difference from the untouched state's value.  Output is a report of
    the observed deviations, bitwise reproducible for fixed inputs; no
    judgement about invariance is baked in.

    ``deviations`` carries the full per-trial list only up to 10000
    trials; beyond that only the running maximum is kept.  The maximum
    is always present.
    """
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    if not 0 <= int(seed) < 2 ** 64:
        raise ValidationError(f"seed must fit in 64 bits, got {seed}")
    check_measure_size(state)
    validate(state, cfg.tol)
    baseline = resolve_measure(measure, state.num_subsystems)(state, cfg)
    dims = state.dims
    keep = trials <= PER_TRIAL_CAP
    deviations = []
    max_abs = 0.0
    step = _chunk_trials(dims)
    for lo in range(0, trials, step):
        count = min(step, trials - lo)
        normals = _chunk_normals(seed, lo, count, dims)
        stacks = [_haar_stack(slot, n) for slot, n in zip(normals, dims)]
        for gates in stacks:
            _check_unitary(gates)
        rotated = _rotate(state.amplitudes, dims, stacks)
        check_unit_norms(rotated, cfg.tol)
        for t in range(count):
            d = measure_amplitudes(baseline.kind, rotated[t], dims, cfg).value - baseline.value
            # seeded by the first deviation, as max() over the list is,
            # so a NaN there still shows
            max_abs = max(max_abs, abs(d)) if lo + t else abs(d)
            if keep:
                deviations.append(d)
    kept = tuple(deviations) if keep else None
    return InvarianceRun(
        seed=int(seed),
        trials=int(trials),
        measure_kind=baseline.kind.value,
        norm_constant=baseline.norm_constant,
        baseline_value=baseline.value,
        max_abs_deviation=max_abs,
        deviations=kept,
    )
