"""Reading and writing states as JSON documents.

The on-disk shape is::

    {"dims": [2, 2],
     "amplitudes": [{"idx": [0, 0], "re": 0.70710678, "im": 0.0}, ...]}

``idx`` entries are 0-based multi-indices.  Saving writes every
amplitude in row-major order; loading accepts any subset (absent
entries are zero) but rejects duplicates, out-of-range indices, and
unknown or repeated fields, naming the offending field in the error.
Floats pass through ``repr`` on the way out and ordinary parsing on the
way in, so a save/load round trip reproduces amplitudes bit for bit.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError, ValidationError
from .states import PureState, check_size_guards, require_int, sparse_state


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    # Python's json reads NaN, Infinity, 1e999 (as inf) and integer
    # literals past the float range, which float() refuses
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{where}: expected a finite number, got {value!r}")
    return number


def _unique_fields(pairs: list) -> dict:
    """An object's fields, refusing one given twice (json keeps the last)."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise ParseError(f"duplicate field {key!r}")
        fields[key] = value
    return fields


def _object(raw, fields, where: str) -> None:
    """Refuse ``raw`` unless it is an object with exactly ``fields``,
    naming the first unknown, then the first missing, field."""
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object, got {type(raw).__name__}")
    unknown = sorted(set(raw).difference(fields))
    if unknown:
        raise ParseError(f"{where}: unknown field {unknown[0]!r}")
    for key in fields:
        if key not in raw:
            raise ParseError(f"{where}: missing field {key!r}")


def _parse_document(doc) -> PureState:
    _object(doc, ("dims", "amplitudes"), "top level")
    if not isinstance(doc["dims"], list) or not doc["dims"]:
        raise ParseError("dims: expected a nonempty list")
    dims = []
    for pos, raw in enumerate(doc["dims"]):
        n = require_int(raw, ParseError, f"dims[{pos}]")
        if n < 1:
            raise ParseError(f"dims[{pos}]: must be at least 1, got {n}")
        dims.append(n)
    if not isinstance(doc["amplitudes"], list):
        raise ParseError("amplitudes: expected a list")
    # Same guards the state itself enforces, applied before anything is
    # allocated, so a hostile document cannot ask for a giant buffer.
    check_size_guards(dims)

    entries = {}
    for pos, raw in enumerate(doc["amplitudes"]):
        where = f"amplitudes[{pos}]"
        _object(raw, ("idx", "re", "im"), where)
        if not isinstance(raw["idx"], list):
            raise ParseError(f"{where}.idx: expected a list")
        if len(raw["idx"]) != len(dims):
            raise ParseError(
                f"{where}.idx: has {len(raw['idx'])} entries for {len(dims)} dims"
            )
        for slot, value in enumerate(raw["idx"]):
            x = require_int(value, ParseError, f"{where}.idx[{slot}]")
            if not 0 <= x < dims[slot]:
                raise ParseError(
                    f"{where}.idx[{slot}]: index {x} out of range for dim {dims[slot]}"
                )
        idx = tuple(raw["idx"])
        if idx in entries:
            raise ParseError(f"{where}.idx: duplicate multi-index {raw['idx']}")
        re = _require_number(raw["re"], f"{where}.re")
        im = _require_number(raw["im"], f"{where}.im")
        entries[idx] = complex(re, im)
    return sparse_state(dims, entries)


def load_state(path: str) -> PureState:
    """Load a state document.

    Raises
    ------
    ParseError
        If the file cannot be read, or its content is not UTF-8 JSON that
        Python can read (nesting and integer digits are bounded) or
        violates the schema; the message names the offending field.
    TooLargeError
        If the dims pass a size guard, before anything is allocated.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_unique_fields)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer past Python's digit limit
        # or arrays nested past the interpreter's stack
        raise ParseError(f"cannot read as JSON: {exc}") from exc
    return _parse_document(doc)


def save_state(state: PureState, path: str) -> None:
    """Write every amplitude of ``state`` to ``path`` in row-major order.

    Raises
    ------
    ValidationError
        If an amplitude is not finite, before ``path`` is opened: JSON
        has no finite spelling for it, and :func:`load_state` refuses
        the token that would be written.
    ParseError
        If the file cannot be written.
    """
    if not np.isfinite(state.amplitudes).all():
        raise ValidationError("cannot save a state with a non-finite amplitude")
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
        raise ParseError(f"cannot write {path}: {exc}") from exc
