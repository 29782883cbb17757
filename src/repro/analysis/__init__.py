"""Analysis: statistics, interference monitoring, budget advice."""

from repro.analysis.advisor import (
    AdvisorLoop,
    BudgetAdvisor,
    BudgetPlan,
    ManagerObservation,
)
from repro.analysis.interference import (
    InterferenceMatrix,
    SystemInterferenceMonitor,
)
from repro.analysis.stats import (
    LatencyStats,
    bytes_per_cycle,
    percentile,
    performance_percent,
)

__all__ = [
    "AdvisorLoop",
    "BudgetAdvisor",
    "BudgetPlan",
    "ManagerObservation",
    "InterferenceMatrix",
    "LatencyStats",
    "SystemInterferenceMonitor",
    "bytes_per_cycle",
    "percentile",
    "performance_percent",
]
