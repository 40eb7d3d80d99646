"""Wedge-product entanglement measures for pure multipartite states."""

from .ketlang import evaluate, parse_ket, pretty
from .lu import InvarianceRun, invariance_experiment
from .measures import (
    MeasureKind,
    MeasureResult,
    bipartite_concurrence,
    multipartite_measure,
)
from .separability import (
    PartitionVerdict,
    SeparabilityReport,
    separability_report,
)
from .statefile import load_state, save_state
from .states import (
    Bipartition,
    PureState,
    enumerate_bipartitions,
    normalize,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "InvarianceRun",
    "MeasureKind",
    "MeasureResult",
    "PureState",
    "SeparabilityReport",
    "PartitionVerdict",
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
