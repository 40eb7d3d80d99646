"""The public API, pinned: adding or removing a name is a one-line diff here."""

from __future__ import annotations

import entwedge
from entwedge import errors

PUBLIC_NAMES = [
    "InvarianceRun",
    "MeasureKind",
    "MeasureResult",
    "PartitionVerdict",
    "PureState",
    "SeparabilityReport",
    "bipartite_concurrence",
    "enumerate_bipartitions",
    "evaluate",
    "invariance_experiment",
    "load_state",
    "multipartite_measure",
    "normalize",
    "parse_ket",
    "pretty",
    "save_state",
    "separability_report",
    "validate",
]


def test_all_is_pinned():
    assert sorted(entwedge.__all__) == PUBLIC_NAMES


def test_every_name_resolves():
    missing = [name for name in entwedge.__all__ if not hasattr(entwedge, name)]
    assert missing == []


# One class per exit code, plus the two subclasses that carry data.
ERROR_EXIT_CODES = {
    "ParseError": 1,
    "KetSyntaxError": 1,
    "ValidationError": 2,
    "NotNormalizedError": 2,
    "TooLargeError": 3,
}


def test_error_classes_are_pinned():
    classes = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert classes == {"EntwedgeError", *ERROR_EXIT_CODES}
    codes = {name: getattr(errors, name).exit_code for name in ERROR_EXIT_CODES}
    assert codes == ERROR_EXIT_CODES
