"""The public API, pinned: adding or removing a name is a one-line diff here."""

from __future__ import annotations

import entwedge

PUBLIC_NAMES = [
    "Bipartition",
    "InvarianceRun",
    "KetExpr",
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
    "trial_rng",
    "validate",
]


def test_all_is_pinned():
    assert sorted(entwedge.__all__) == PUBLIC_NAMES


def test_every_name_resolves():
    missing = [name for name in entwedge.__all__ if not hasattr(entwedge, name)]
    assert missing == []
