"""JSON state documents: round trips and schema rejection."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from entwedge import PureState, load_state, save_state
from entwedge.errors import ParseError, TooLargeError, ValidationError
from conftest import HOSTILE_STATE_FILES, bell_state, random_state


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def amp(idx, re=0.0, im=0.0) -> dict:
    return {"idx": list(idx), "re": re, "im": im}


class TestRoundTrip:
    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 3, 2), (4, 4)])
    def test_bitwise(self, rng, tmp_path, dims):
        state = random_state(rng, dims)
        path = str(tmp_path / "state.json")
        save_state(state, path)
        loaded = load_state(path)
        assert loaded.dims == state.dims
        np.testing.assert_array_equal(loaded.amplitudes, state.amplitudes)

    def test_negative_zero_survives(self, tmp_path):
        amps = np.array([1.0, complex(-0.0, -0.0)], dtype=np.complex128)
        path = str(tmp_path / "state.json")
        save_state(PureState((2,), amps), path)
        loaded = load_state(path)
        assert np.signbit(loaded.amplitudes[1].real)
        assert np.signbit(loaded.amplitudes[1].imag)
        np.testing.assert_array_equal(loaded.amplitudes, amps)

    def test_save_writes_every_entry_in_row_major_order(self, tmp_path):
        path = str(tmp_path / "bell.json")
        save_state(bell_state(), path)
        text = Path(path).read_text(encoding="utf-8")
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["dims"] == [2, 2]
        assert [entry["idx"] for entry in doc["amplitudes"]] == [
            [0, 0], [0, 1], [1, 0], [1, 1],
        ]

    def test_repeated_saves_are_identical(self, rng, tmp_path):
        state = random_state(rng, (2, 2))
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        save_state(state, a)
        save_state(state, b)
        assert Path(a).read_text() == Path(b).read_text()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)],
                             ids=["nan-re", "inf-re", "nan-im", "inf-im"])
    def test_save_refuses_non_finite(self, tmp_path, bad):
        # JSON has no finite spelling for these, and load_state refuses
        # the bare NaN or Infinity token json.dump would write
        path = tmp_path / "state.json"
        with pytest.raises(ValidationError, match="non-finite amplitude"):
            save_state(PureState((2,), [bad, 1.0]), str(path))
        assert not path.exists()

    def test_unwritable_path_is_a_parse_error(self, tmp_path):
        # a directory cannot be opened for writing
        with pytest.raises(ParseError, match="^cannot write "):
            save_state(bell_state(), str(tmp_path))


class TestLoad:
    def test_sparse_document(self, tmp_path):
        doc = {
            "dims": [2, 2],
            "amplitudes": [amp([0, 0], re=0.6), amp([1, 1], im=0.8)],
        }
        state = load_state(write_doc(tmp_path, doc))
        np.testing.assert_array_equal(
            state.amplitudes, [0.6, 0.0, 0.0, 0.8j]
        )

    def test_empty_amplitudes(self, tmp_path):
        doc = {"dims": [3], "amplitudes": []}
        state = load_state(write_doc(tmp_path, doc))
        np.testing.assert_array_equal(state.amplitudes, np.zeros(3))

    def test_integer_components_accepted(self, tmp_path):
        doc = {"dims": [2], "amplitudes": [amp([0], re=1)]}
        state = load_state(write_doc(tmp_path, doc))
        assert state.amplitudes[0] == 1.0
        # the largest integer that rounds below the float range
        doc = {"dims": [2], "amplitudes": [amp([0], re=2 ** 1024 - 2 ** 970 - 1)]}
        state = load_state(write_doc(tmp_path, doc))
        assert state.amplitudes[0] == sys.float_info.max

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="^cannot read .*nope.json"):
            load_state(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_state(str(path))
        assert "not valid JSON" in str(info.value)

    @pytest.mark.parametrize("fragment", sorted(HOSTILE_STATE_FILES))
    def test_hostile_file(self, tmp_path, int_digit_limit, fragment):
        path = tmp_path / "hostile.json"
        path.write_bytes(HOSTILE_STATE_FILES[fragment])
        with pytest.raises(ParseError, match=f"^cannot read as JSON: .*{fragment}"):
            load_state(str(path))

    def test_size_guards(self, tmp_path):
        doc = {"dims": [2048, 1024], "amplitudes": []}
        with pytest.raises(TooLargeError):
            load_state(write_doc(tmp_path, doc))
        doc = {"dims": [2] * 63, "amplitudes": []}
        with pytest.raises(TooLargeError):
            load_state(write_doc(tmp_path, doc))


class TestSchemaMessages:
    def check(self, tmp_path, doc, fragment):
        with pytest.raises(ParseError) as info:
            load_state(write_doc(tmp_path, doc))
        assert fragment in str(info.value)

    def test_top_level_not_object(self, tmp_path):
        self.check(tmp_path, [1, 2], "top level: expected an object, got list")

    def test_unknown_top_level_field(self, tmp_path):
        doc = {"dims": [2], "amplitudes": [], "extra": 1}
        self.check(tmp_path, doc, "top level: unknown field 'extra'")

    def test_missing_top_level_field(self, tmp_path):
        self.check(tmp_path, {"dims": [2]}, "top level: missing field 'amplitudes'")

    def test_dims_not_a_list(self, tmp_path):
        self.check(
            tmp_path, {"dims": 4, "amplitudes": []}, "dims: expected a nonempty list"
        )
        self.check(
            tmp_path, {"dims": [], "amplitudes": []}, "dims: expected a nonempty list"
        )

    def test_dims_entry_not_positive(self, tmp_path):
        doc = {"dims": [2, 0], "amplitudes": []}
        self.check(tmp_path, doc, "dims[1]: must be at least 1, got 0")

    def test_dims_entry_not_int(self, tmp_path):
        doc = {"dims": [2, 2.5], "amplitudes": []}
        self.check(tmp_path, doc, "dims[1]: expected an integer, got 2.5")
        doc = {"dims": [True], "amplitudes": []}
        self.check(tmp_path, doc, "dims[0]: expected an integer, got True")

    def test_amplitudes_not_a_list(self, tmp_path):
        doc = {"dims": [2], "amplitudes": {}}
        self.check(tmp_path, doc, "amplitudes: expected a list")

    def test_amplitude_entry_not_object(self, tmp_path):
        doc = {"dims": [2], "amplitudes": [7]}
        self.check(tmp_path, doc, "amplitudes[0]: expected an object")

    def test_amplitude_entry_names_its_type(self, tmp_path):
        # the same check as the top level's, so the same message
        doc = {"dims": [2], "amplitudes": [[0]]}
        self.check(tmp_path, doc, "amplitudes[0]: expected an object, got list")

    def test_unknown_amplitude_field(self, tmp_path):
        doc = {"dims": [2], "amplitudes": [dict(amp([0]), phase=1.0)]}
        self.check(tmp_path, doc, "amplitudes[0]: unknown field 'phase'")

    def test_missing_amplitude_field(self, tmp_path):
        doc = {"dims": [2], "amplitudes": [{"idx": [0], "re": 1.0}]}
        self.check(tmp_path, doc, "amplitudes[0]: missing field 'im'")

    def test_idx_not_a_list(self, tmp_path):
        doc = {"dims": [2], "amplitudes": [{"idx": 0, "re": 1.0, "im": 0.0}]}
        self.check(tmp_path, doc, "amplitudes[0].idx: expected a list")

    def test_idx_wrong_length(self, tmp_path):
        doc = {"dims": [2, 2], "amplitudes": [amp([0, 0, 0])]}
        self.check(tmp_path, doc, "amplitudes[0].idx: has 3 entries for 2 dims")

    def test_idx_out_of_range(self, tmp_path):
        doc = {"dims": [2, 2], "amplitudes": [amp([0, 2])]}
        self.check(
            tmp_path, doc, "amplitudes[0].idx[1]: index 2 out of range for dim 2"
        )

    def test_idx_bool_rejected(self, tmp_path):
        doc = {"dims": [2, 2], "amplitudes": [amp([True, 0])]}
        self.check(tmp_path, doc, "amplitudes[0].idx[0]: expected an integer, got True")

    def test_duplicate_idx(self, tmp_path):
        doc = {"dims": [2, 2], "amplitudes": [amp([0, 0], re=1.0), amp([0, 0])]}
        self.check(tmp_path, doc, "amplitudes[1].idx: duplicate multi-index [0, 0]")

    @pytest.mark.parametrize("text, field", [
        ('{"dims": [2], "dims": [1], "amplitudes": []}', "dims"),
        ('{"dims": [1], "amplitudes": [{"idx": [0], "re": 5.0, "re": 1.0, "im": 0.0}]}', "re"),
    ], ids=["top-level", "entry"])
    def test_repeated_field(self, tmp_path, text, field):
        # json would keep the last value; a file that gives a field twice
        # is ambiguous, so it is refused
        path = tmp_path / "state.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^duplicate field '{field}'$"):
            load_state(str(path))

    def test_component_not_a_number(self, tmp_path):
        doc = {"dims": [2], "amplitudes": [{"idx": [0], "re": "big", "im": 0.0}]}
        self.check(tmp_path, doc, "amplitudes[0].re: expected a number, got 'big'")
        doc = {"dims": [2], "amplitudes": [{"idx": [0], "re": 0.0, "im": True}]}
        self.check(tmp_path, doc, "amplitudes[0].im: expected a number, got True")

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400, str(2 ** 1024 - 2 ** 970)],
        ids=["nan", "inf", "-inf", "1e999", "int-1e400", "int-rounds-to-2**1024"],
    )
    def test_component_not_finite(self, tmp_path, literal):
        path = tmp_path / "state.json"
        path.write_text(
            '{"dims": [2], "amplitudes": [{"idx": [0], "re": 1.0, "im": %s}]}' % literal,
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as info:
            load_state(str(path))
        assert "amplitudes[0].im: expected a finite number" in str(info.value)
