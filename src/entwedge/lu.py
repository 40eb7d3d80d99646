"""Haar-random local unitaries and the invariance experiment.

Randomness contract: an experiment reads one stream, PCG64 seeded with
``SeedSequence(seed)``.  Trial k on dims ``n_1 .. n_m`` takes raw words
``[k W, (k + 1) W)`` with ``W = sum_j 2 n_j^2``, slot j's gate the next
``2 n_j^2`` of them; ``tests/oracles.py`` rebuilds trial k alone by
advancing the stream ``k W`` words.  Complex Gaussians come from an
explicit Box-Muller transform of uniform doubles, cosine to the real
part and sine to the imaginary, rather than the generator's own normal
method, pinning the exact variate stream to this module instead of to
numpy internals.  A uniform double is ``(w >> 11) * 2**-53`` for a raw
word ``w``, which is what ``Generator.random`` returns on PCG64.

The experiment itself applies one independent Haar unitary per subsystem
and reports how far the measure moves: the bipartite concurrence on two
subsystems, the multipartite measure otherwise, as ``entwedge measure``
picks them.  It asserts nothing about the deviations; it only reports
them.  A run is priced before anything is validated or drawn: trials
times one trial's work, each gate's ``n^3`` plus the row pairs times
columns squared of every split the re-measure reads, may not pass
``MAX_INVARIANCE_WORK``.  Trials run in chunks: a
chunk reads its trials' words in one call, and the conversion to
uniforms, Box-Muller per slot, the QR factorization with its phase fix,
the unitarity check, the rotation and the re-measure, which unfolds the
rotated stack once per split and returns the chunk's term sums as one
array, all run once over the chunk's stack of trials, and so do the
values and deviations.  The baseline measure is the one norm check.  Every
step works within one trial's numbers, so a trial's deviation is
bitwise the same whatever the chunk size.  The tests check that
equality, bit for bit, against an oracle that runs one trial at a time
from trial k's words: uniform doubles from ``Generator.random``, then
these same Box-Muller, QR and rotation helpers on a batch of one, then
the public measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import TooLargeError, ValidationError
from .measures import _auto_measure, _splits, _values, measure_rows
from .states import PureState, require_int, shown

UNITARITY_TOL = 1e-10

# Trials run in chunks holding at most this many complex entries (rotated
# states plus gates), and at least one trial.  MAX_INVARIANCE_WORK allows
# no gate past n = 584, and one trial on (1, 584) peaked at about 70 MB
# of RSS, interpreter and numpy included.
CHUNK_AMPLITUDES = 1 << 16

# Work units one experiment may cost: trials times _trial_work(dims).
# The slowest accepted runs, about 4800 trials on (16, 16) and 55000 on
# (2, 3, 4), took about 10 s on a 2-CPU x86-64 host.
MAX_INVARIANCE_WORK = 2 * 10 ** 8

# Units a trial costs however small its state: its own kernel calls.
_TRIAL_FLOOR = 3000


@dataclass(frozen=True)
class InvarianceRun:
    """Outcome of one seeded invariance experiment: ``deviations`` holds
    each trial's value minus ``baseline_value``, in trial order, and
    ``max_abs_deviation`` their largest modulus (0.0 for no trials).
    ``norm_constant`` is always the measures' ``NORM_CONSTANT``."""

    seed: int
    trials: int
    measure_kind: str
    norm_constant: float
    baseline_value: float
    max_abs_deviation: float
    deviations: tuple


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Complex Gaussians from Box-Muller, entrywise: the cosine normal
    is the real part and the sine normal the imaginary part.

    ``log1p(-u)`` keeps the argument strictly positive since ``u`` is
    drawn from [0, 1).
    """
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * math.pi * u2
    return radius * np.cos(angle) + 1j * (radius * np.sin(angle))


def _chunk_normals(bits: np.random.PCG64, count: int, dims) -> list:
    """The complex Gaussians of the next ``count`` trials in ``bits``,
    one ``(count, n, n)`` stack per slot.

    Matrix t of slot j's stack is bitwise the Box-Muller Gaussians of
    the next ``2 n_j^2`` uniform doubles from a ``Generator`` at trial
    t's first word, after the earlier slots' draws: ``n_j^2`` uniforms
    for the radii, then ``n_j^2`` for the angles.
    """
    total = sum(2 * n * n for n in dims)
    raw = bits.random_raw(count * total).reshape(count, total)
    uniforms = (raw >> np.uint64(11)) * 2.0 ** -53
    normals = []
    for n in dims:
        radii, angles, uniforms = np.split(uniforms, [n * n, 2 * n * n], axis=1)
        normals.append(_box_muller(radii, angles).reshape(count, n, n))
    return normals


def _haar_stack(z: np.ndarray) -> np.ndarray:
    """Haar unitaries, one per matrix of a ``(T, n, n)`` stack ``z`` of
    complex Gaussian matrices.

    The stack is factored as ``Z = QR`` in one call, and column k of
    each Q is multiplied by the phase ``r_kk / |r_kk|`` so that R's
    diagonal becomes real and positive; without this phase fix Q is not
    Haar distributed (Mezzadri, Notices AMS 54, 592 (2007)).  LAPACK
    factors each matrix on its own, so a matrix's result does not depend
    on what else is in the stack.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _check_unitary(stack: np.ndarray) -> None:
    """Refuse a ``(T, n, n)`` stack unless every matrix is unitary within
    ``UNITARITY_TOL`` componentwise, before the rotation: a gate that
    passes moves a norm by about ``n * 1e-10`` at most, a drift the
    experiment reports in ``deviations`` and does not refuse."""
    gram = np.matmul(stack.conj().transpose(0, 2, 1), stack)
    defect = float(np.max(np.abs(gram - np.eye(stack.shape[-1]))))
    # written as "not <=" because every comparison with NaN is False
    if not defect <= UNITARITY_TOL:
        raise ValidationError(
            f"matrix deviates from unitary by {defect:.3e} (tol {UNITARITY_TOL:g})"
        )


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


def _chunk_trials(dims) -> int:
    """Trials per chunk: as many as fit ``CHUNK_AMPLITUDES`` counting each
    trial's rotated state and gate entries, and at least one."""
    per_trial = math.prod(dims) + sum(n * n for n in dims)
    return max(1, CHUNK_AMPLITUDES // per_trial)


def _trial_work(dims) -> int:
    """Work units of one trial on ``dims``: ``_TRIAL_FLOOR``, ``n^3`` per
    slot for its gate's QR and unitarity check, and the kernel's price
    for the splits the re-measure reads.  ``TooLargeError`` when that
    price passes the measure guard."""
    kernel = _kernels.check_split_work(dims, _splits(len(dims)))
    return _TRIAL_FLOOR + sum(n ** 3 for n in dims) + kernel


def invariance_experiment(state: PureState, trials: int = 1000, seed: int = 0) -> InvarianceRun:
    """Measure drift under per-subsystem Haar unitaries.

    Runs ``trials`` independent rounds; round k rotates every subsystem
    by a fresh Haar unitary drawn from trial k's words and records the
    difference from the untouched state's value.  Output is a report of
    the observed deviations, bitwise reproducible for fixed inputs; no
    judgement about invariance is baked in.

    A negative ``trials`` or a ``seed`` outside ``[0, 2**64)`` is refused
    first.  Before the state is validated or anything is drawn, the run is
    refused with ``TooLargeError`` when the re-measure's kernel price
    passes the measure guard or trials times :func:`_trial_work` passes
    ``MAX_INVARIANCE_WORK``.  The baseline measure then checks the state's
    norm, the only norm check of the run; each chunk's gates pass
    :func:`_check_unitary` before they rotate it.

    ``deviations`` carries every trial's deviation, a list the price
    bounds at 66622 trials, on dims (1, 1).  ``max_abs_deviation`` is
    their largest modulus, and NaN when any trial's deviation is.
    """
    trials = require_int(trials, ValidationError, "trials")
    seed = require_int(seed, ValidationError, "seed")
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {shown(trials)}")
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"need 0 <= seed < 2**64, got {shown(seed)}")
    per_trial = _trial_work(state.dims)
    if trials * per_trial > MAX_INVARIANCE_WORK:
        raise TooLargeError(
            f"the invariance guard of {MAX_INVARIANCE_WORK} work units allows at most "
            f"{MAX_INVARIANCE_WORK // per_trial} trials on dims {state.dims} "
            f"({per_trial} a trial)"
        )
    bits = np.random.PCG64(np.random.SeedSequence(seed))
    baseline = _auto_measure(state)
    dims = state.dims
    deviations = []
    step = _chunk_trials(dims)
    for lo in range(0, trials, step):
        count = min(step, trials - lo)
        normals = _chunk_normals(bits, count, dims)
        stacks = [_haar_stack(z) for z in normals]
        for gates in stacks:
            _check_unitary(gates)
        rotated = _rotate(state.amplitudes, dims, stacks)
        values = _values(measure_rows(baseline.kind, rotated, dims))
        deviations.extend((values - baseline.value).tolist())
    return InvarianceRun(
        seed=seed,
        trials=trials,
        measure_kind=baseline.kind.value,
        norm_constant=baseline.norm_constant,
        baseline_value=baseline.value,
        # np.max propagates a NaN from any trial
        max_abs_deviation=float(np.max(np.abs(deviations), initial=0.0)),
        deviations=tuple(deviations),
    )
