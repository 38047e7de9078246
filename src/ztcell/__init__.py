"""ztcell: a deterministic single-cell O-RAN simulator whose near-RT RIC runs
zero-trust security microservices (authentication, intrusion detection,
secure slicing) as cooperating xApps."""

from .core import (
    BehaviorProfile,
    FieldStats,
    KPMReport,
    PRBMask,
    SliceKind,
    SlicePriority,
    SliceSpec,
    equal_split,
    validate_slice_table,
)
from .ran import RanCell
from .runner import RunResult, RunSummary, fpr_sweep, run, summarize_dir
from .scenario import (
    CellConfig,
    RadioProfile,
    Scenario,
    ScenarioError,
    TrafficModel,
    load_scenario,
    parse_scenario,
)

__all__ = [
    "BehaviorProfile",
    "CellConfig",
    "FieldStats",
    "KPMReport",
    "PRBMask",
    "RadioProfile",
    "RanCell",
    "RunResult",
    "RunSummary",
    "Scenario",
    "ScenarioError",
    "SliceKind",
    "SlicePriority",
    "SliceSpec",
    "TrafficModel",
    "equal_split",
    "fpr_sweep",
    "load_scenario",
    "parse_scenario",
    "run",
    "summarize_dir",
    "validate_slice_table",
]

__version__ = "0.1.0"
