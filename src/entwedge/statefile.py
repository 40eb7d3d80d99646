"""Reading and writing states as JSON documents.

The on-disk shape is::

    {"dims": [2, 2],
     "amplitudes": [{"idx": [0, 0], "re": 0.70710678, "im": 0.0}, ...]}

``idx`` entries are 0-based multi-indices.  Saving writes every
amplitude in row-major order; loading accepts any subset (absent
entries are zero) but rejects duplicates, out-of-range indices, and
unknown fields, naming the offending field in the error.  Floats pass
through ``repr`` on the way out and ordinary parsing on the way in, so
a save/load round trip reproduces amplitudes bit for bit.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import IoError, SchemaError
from .states import PureState, check_size_guards, is_finite, require_int


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    # Python's json reads NaN, Infinity, 1e999 (as inf) and integer
    # literals past the float range
    if not is_finite(value):
        raise SchemaError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _parse_document(doc) -> PureState:
    if not isinstance(doc, dict):
        raise SchemaError(f"top level: expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {"dims", "amplitudes"})
    if unknown:
        raise SchemaError(f"top level: unknown field {unknown[0]!r}")
    for key in ("dims", "amplitudes"):
        if key not in doc:
            raise SchemaError(f"top level: missing field {key!r}")
    if not isinstance(doc["dims"], list) or not doc["dims"]:
        raise SchemaError("dims: expected a nonempty list")
    dims = []
    for pos, raw in enumerate(doc["dims"]):
        n = require_int(raw, SchemaError, f"dims[{pos}]")
        if n < 1:
            raise SchemaError(f"dims[{pos}]: must be at least 1, got {n}")
        dims.append(n)
    if not isinstance(doc["amplitudes"], list):
        raise SchemaError("amplitudes: expected a list")
    # Same guards the state itself enforces, applied before anything is
    # allocated, so a hostile document cannot ask for a giant buffer.
    check_size_guards(dims)

    entries = {}
    for pos, raw in enumerate(doc["amplitudes"]):
        where = f"amplitudes[{pos}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: expected an object")
        unknown = sorted(set(raw) - {"idx", "re", "im"})
        if unknown:
            raise SchemaError(f"{where}: unknown field {unknown[0]!r}")
        for key in ("idx", "re", "im"):
            if key not in raw:
                raise SchemaError(f"{where}: missing field {key!r}")
        if not isinstance(raw["idx"], list):
            raise SchemaError(f"{where}.idx: expected a list")
        if len(raw["idx"]) != len(dims):
            raise SchemaError(
                f"{where}.idx: has {len(raw['idx'])} entries for {len(dims)} dims"
            )
        for slot, value in enumerate(raw["idx"]):
            x = require_int(value, SchemaError, f"{where}.idx[{slot}]")
            if not 0 <= x < dims[slot]:
                raise SchemaError(
                    f"{where}.idx[{slot}]: index {x} out of range for dim {dims[slot]}"
                )
        idx = tuple(raw["idx"])
        if idx in entries:
            raise SchemaError(f"{where}.idx: duplicate multi-index {raw['idx']}")
        re = _require_number(raw["re"], f"{where}.re")
        im = _require_number(raw["im"], f"{where}.im")
        entries[idx] = complex(re, im)

    vector = np.zeros(math.prod(dims), dtype=np.complex128)
    multi = np.array(list(entries), dtype=np.intp).reshape(-1, len(dims))
    vector[np.ravel_multi_index(multi.T, dims)] = list(entries.values())
    return PureState(tuple(dims), vector)


def load_state(path: str) -> PureState:
    """Load a state document.

    Raises
    ------
    IoError
        If the file cannot be read.
    SchemaError
        If the content is not valid JSON or violates the schema; the
        message names the offending field.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return _parse_document(doc)


def save_state(state: PureState, path: str) -> None:
    """Write every amplitude of ``state`` to ``path`` in row-major order."""
    indices = np.ndindex(*state.dims)
    amplitudes = [
        {"idx": list(idx), "re": float(a.real), "im": float(a.imag)}
        for idx, a in zip(indices, state.amplitudes)
    ]
    doc = {"dims": list(state.dims), "amplitudes": amplitudes}
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
