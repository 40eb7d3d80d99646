"""Shared state builders for the test suite."""

from __future__ import annotations

import math
import os
import sys
from functools import reduce

import numpy as np
import pytest

import entwedge
from entwedge import PureState


def random_state(rng: np.random.Generator, dims) -> PureState:
    """Normalized dense state with iid complex Gaussian amplitudes."""
    size = math.prod(dims)
    vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return PureState(tuple(dims), vec / np.linalg.norm(vec))


def random_product_state(rng: np.random.Generator, dims) -> PureState:
    """Tensor product of independent random unit vectors."""
    factors = []
    for n in dims:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        factors.append(v / np.linalg.norm(v))
    return PureState(tuple(dims), reduce(np.kron, factors))


def bell_state() -> PureState:
    vec = np.zeros(4, dtype=np.complex128)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    return PureState((2, 2), vec)


def ghz_state(m: int) -> PureState:
    vec = np.zeros(2 ** m, dtype=np.complex128)
    vec[0] = vec[-1] = 1 / math.sqrt(2)
    return PureState((2,) * m, vec)


def w3_state() -> PureState:
    tensor = np.zeros((2, 2, 2), dtype=np.complex128)
    tensor[0, 0, 1] = tensor[0, 1, 0] = tensor[1, 0, 0] = 1 / math.sqrt(3)
    return PureState((2, 2, 2), tensor.reshape(-1))


def bell_x_zero_state() -> PureState:
    tensor = np.zeros((2, 2, 2), dtype=np.complex128)
    tensor[0, 0, 0] = tensor[1, 1, 0] = 1 / math.sqrt(2)
    return PureState((2, 2, 2), tensor.reshape(-1))


def bell_x_bell_state() -> PureState:
    pair = bell_state().amplitudes
    return PureState((2, 2, 2, 2), np.kron(pair, pair))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)


@pytest.fixture
def int_digit_limit():
    """Python's default limit of 4300 digits on int() from text, however
    the interpreter was started."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


# State files Python's own readers give up on, by the fragment of the
# message each refusal carries: nesting past the decoder's recursion,
# bytes that are not UTF-8 (a UTF-16 byte-order mark) and an integer
# past the digit limit.
HOSTILE_STATE_FILES = {
    "recursion depth": b"[" * 200000,
    "can't decode byte 0xff": b"\xff\xfe" + '{"dims": [2]}'.encode("utf-16-le"),
    "4300 digits": b'{"dims": [' + b"1" * 5000 + b'], "amplitudes": []}',
}


def child_env(**extra) -> dict:
    """The environment for a child interpreter that imports this
    checkout's entwedge, with ``extra`` variables set."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(entwedge.__file__)))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# Child-process code that prints the child's peak resident memory in KB.
# On Linux ru_maxrss starts at the parent's peak when spawned, while
# VmHWM counts this process alone.
PRINT_PEAK_KB = "\n".join([
    "import resource, sys",
    "try:",
    "    with open('/proc/self/status') as status:",
    "        peak = int(next(l for l in status if l.startswith('VmHWM:')).split()[1])",
    "except (OSError, StopIteration):",
    "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
    "    peak = peak // 1024 if sys.platform == 'darwin' else peak",
    "print(peak)",
])
