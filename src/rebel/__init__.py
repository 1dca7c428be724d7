"""Rule-based, experience-enhanced initial task allocation for
multi-human multi-robot missions."""

from .core import (
    Assignment,
    HumanProfile,
    ItaPlan,
    MissionScenario,
    NormalizationBounds,
    Objective,
    PerformanceRecord,
    PreferenceVector,
    RobotProfile,
    TaskSpec,
    Tier,
    aggregate_objective,
    normalize_objective,
    validate_plan,
)
from .sim import SimConfig, run_mission

__all__ = [
    "Assignment",
    "HumanProfile",
    "ItaPlan",
    "MissionScenario",
    "NormalizationBounds",
    "Objective",
    "PerformanceRecord",
    "PreferenceVector",
    "RobotProfile",
    "SimConfig",
    "TaskSpec",
    "Tier",
    "aggregate_objective",
    "normalize_objective",
    "run_mission",
    "validate_plan",
]

__version__ = "0.1.0"
