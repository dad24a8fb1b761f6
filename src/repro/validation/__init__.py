"""The paper's core contribution: the simulator-validation framework.

Compare simulators against a gold standard (:mod:`comparison`), calibrate
them with microbenchmarks (:mod:`tuning`), evaluate trend prediction
(:mod:`trends`), probe memory-model sensitivity (:mod:`sensitivity`), and
inject/demonstrate the classic performance bugs (:mod:`bugs`).  The
results dashboard is :mod:`repro.validation.dashboard`; importing the
package does not load it.
"""

from repro.validation.bugs import (
    CACHEOP_BUG,
    CacheFlushWorkload,
    FAST_ISSUE_BUG,
    KNOWN_BUGS,
    PerformanceBug,
    demonstrate_bug,
    get_bug,
)
from repro.validation.comparison import (
    ComparisonRow,
    ComparisonTable,
    compare_simulators,
)
from repro.validation.metrics import (
    mean_abs_percent_error,
    percent_error,
    rank_order_preserved,
    relative_time,
    speedup,
    trend_agreement,
)
from repro.validation.sensitivity import (
    HotspotStudy,
    evidence,
    hotspot_study,
)
from repro.validation.trends import (
    DEFAULT_CPU_COUNTS,
    SpeedupCurve,
    SpeedupStudy,
    speedup_study,
)
from repro.validation.tuning import Tuner, TuningReport, measure_port_occupancy_cycles

__all__ = [
    "CACHEOP_BUG",
    "CacheFlushWorkload",
    "FAST_ISSUE_BUG",
    "KNOWN_BUGS",
    "PerformanceBug",
    "demonstrate_bug",
    "get_bug",
    "ComparisonRow",
    "ComparisonTable",
    "compare_simulators",
    "mean_abs_percent_error",
    "percent_error",
    "rank_order_preserved",
    "relative_time",
    "speedup",
    "trend_agreement",
    "HotspotStudy",
    "evidence",
    "hotspot_study",
    "DEFAULT_CPU_COUNTS",
    "SpeedupCurve",
    "SpeedupStudy",
    "speedup_study",
    "Tuner",
    "TuningReport",
    "measure_port_occupancy_cycles",
]
