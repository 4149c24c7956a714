"""The continuous-learning system: DaCapo's algorithm and its baselines.

This package implements the paper's section VI (spatiotemporal resource
allocation, Algorithm 1) and section VII-A's system simulator: an
event-driven simulation that advances a clock through retraining/labeling
phases whose durations come from the platform's kernel rates, evaluates the
student on every stream frame under the weights active at that moment, and
accounts energy.

Systems:

- :class:`~repro.core.system.DaCapoSystem` -- spatial partition + Algorithm 1
  (the paper's DaCapo-Spatiotemporal).
- :class:`~repro.core.baselines.FixedWindowSystem` -- Ekya-style fixed-window
  scheduling, usable on GPU platforms (OrinLow/High-Ekya, RTX3090-Ekya), on DaCapo with
  time-multiplexing (DaCapo-Ekya) or with the spatial partition
  (DaCapo-Spatial).
- :class:`~repro.core.baselines.EomuSystem` -- EOMU-style short-window
  triggered retraining.
- :class:`~repro.core.baselines.NoRetrainSystem` -- frozen student or teacher
  (Figure 2's non-continuous-learning bars).
"""

from repro.core.config import DaCapoConfig, hyperparameter_table
from repro.core.buffer import SampleBuffer
from repro.core.estimator import KernelRates, PerformanceEstimator
from repro.core.spatial import allocate_partition
from repro.core.phases import PhaseKind, PhaseRecord
from repro.core.results import RunResult
from repro.core.system import DaCapoSystem
from repro.core.baselines import (
    EomuSystem,
    FixedWindowSystem,
    NoRetrainSystem,
)
from repro.core.runner import (
    SYSTEM_BUILDERS,
    SystemCell,
    build_system,
    run_on_scenario,
    warm_model_caches,
)
from repro.core.tuning import (
    TuningResult,
    default_search_space,
    tune_hyperparameters,
)
from repro.core.validate import validate_run

__all__ = [
    "DaCapoConfig",
    "DaCapoSystem",
    "EomuSystem",
    "FixedWindowSystem",
    "KernelRates",
    "NoRetrainSystem",
    "PerformanceEstimator",
    "PhaseKind",
    "PhaseRecord",
    "RunResult",
    "SYSTEM_BUILDERS",
    "SampleBuffer",
    "SystemCell",
    "TuningResult",
    "allocate_partition",
    "build_system",
    "default_search_space",
    "hyperparameter_table",
    "run_on_scenario",
    "tune_hyperparameters",
    "validate_run",
    "warm_model_caches",
]
