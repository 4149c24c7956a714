"""System factory, grid cells and experiment-running helpers.

``build_system`` assembles any of the paper's evaluated systems by name for
a given model pair; ``run_on_scenario`` executes it over a Table II
scenario.  A grid cell (:class:`SystemCell`) names one such run;
:mod:`repro.exec` dispatches them.  The system names match the legends of
the paper's Figure 9 and Figure 2:

========================  =====================================================
Name                      Meaning
========================  =====================================================
``OrinLow-Ekya``          Ekya scheduling on Jetson Orin at 30 W
``OrinHigh-Ekya``         Ekya scheduling on Jetson Orin at 60 W
``OrinHigh-EOMU``         EOMU scheduling on Jetson Orin at 60 W
``DaCapo-Ekya``           Ekya scheduling on time-shared DaCapo hardware
``DaCapo-Spatial``        fixed-window scheduling on partitioned DaCapo
``DaCapo-Spatiotemporal`` Algorithm 1 on partitioned DaCapo
``RTX3090-Ekya``          Ekya scheduling on an RTX 3090 (Figure 2)
``<GPU>-Student``         the frozen student on ``RTX3090``, ``OrinHigh`` or
                          ``OrinLow`` (Figure 2)
``<GPU>-Teacher``         the teacher deployed for inference on one of those
                          GPUs (Figure 2)
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from repro.accelerator import SystolicArray
from repro.core.baselines import (
    EomuSystem,
    FixedWindowSystem,
    NoRetrainSystem,
)
from repro.core.config import DaCapoConfig
from repro.core.results import RunResult
from repro.core.spatial import allocate_partition
from repro.core.system import CLSystemBase, DaCapoSystem
from repro.data.scenarios import build_scenario
from repro.data.stream import ScenarioStream
from repro.errors import ConfigurationError
from repro.learn.student import StudentModel, make_student
from repro.learn.teacher import make_teacher
from repro.models.zoo import ModelPair, get_pair
from repro.mx import MX6, MX9
from repro.platform import (
    DaCapoPlatform,
    DaCapoTimeShared,
    jetson_orin_high,
    jetson_orin_low,
    rtx_3090,
)

__all__ = [
    "SYSTEM_BUILDERS",
    "SystemCell",
    "build_system",
    "run_on_scenario",
    "warm_model_caches",
]


def _dacapo_platform(pair: ModelPair, config: DaCapoConfig) -> DaCapoPlatform:
    """Partitioned DaCapo platform via the offline spatial allocator."""
    partition = allocate_partition(
        SystolicArray(), pair.student_graph(), config.frame_rate, MX6
    )
    return DaCapoPlatform(partition=partition)


def _make_models(
    pair: ModelPair, on_dacapo: bool, seed: int
) -> tuple[StudentModel, object]:
    """Student/teacher proxies at the platform's execution precision."""
    if on_dacapo:
        student = make_student(
            pair.student, inference_fmt=MX6, training_fmt=MX9, seed=seed
        )
        teacher = make_teacher(pair.teacher, fmt=MX6, seed=seed)
    else:
        student = make_student(pair.student, seed=seed)
        teacher = make_teacher(pair.teacher, seed=seed)
    return student, teacher


_GPUS = {
    "RTX3090": rtx_3090,
    "OrinHigh": jetson_orin_high,
    "OrinLow": jetson_orin_low,
}


def _build_gpu(gpu, kind, pair, config, seed):
    """``<gpu>-<kind>``: Ekya's fixed windows, or a frozen model that never
    retrains -- the student, or the teacher deployed for inference."""
    student, teacher = _make_models(pair, on_dacapo=False, seed=seed)
    name = f"{gpu}-{kind}"
    if kind == "Ekya":
        return FixedWindowSystem(
            name, _GPUS[gpu](), pair, student, teacher, config
        )
    if kind == "Teacher":
        student = StudentModel(
            name=teacher.name,
            mlp=teacher.mlp.clone(),
            sensitivity=teacher.sensitivity,
        )
    return NoRetrainSystem(
        name, _GPUS[gpu](), pair, student, teacher, config,
        deploy_teacher=kind == "Teacher",
    )


def _build_orin_high_eomu(pair, config, seed):
    student, teacher = _make_models(pair, on_dacapo=False, seed=seed)
    return EomuSystem(
        "OrinHigh-EOMU", jetson_orin_high(), pair, student, teacher, config
    )


def _build_dacapo_ekya(pair, config, seed):
    student, teacher = _make_models(pair, on_dacapo=True, seed=seed)
    return FixedWindowSystem(
        "DaCapo-Ekya", DaCapoTimeShared(), pair, student, teacher, config
    )


def _build_dacapo_spatial(pair, config, seed):
    student, teacher = _make_models(pair, on_dacapo=True, seed=seed)
    return FixedWindowSystem(
        "DaCapo-Spatial",
        _dacapo_platform(pair, config),
        pair,
        student,
        teacher,
        config,
    )


def _build_dacapo_spatiotemporal(pair, config, seed):
    student, teacher = _make_models(pair, on_dacapo=True, seed=seed)
    return DaCapoSystem(
        "DaCapo-Spatiotemporal",
        _dacapo_platform(pair, config),
        pair,
        student,
        teacher,
        config,
    )


#: Every system by name: Figure 9's six in the paper's legend order, then
#: the rest of Figure 2's GPU study.
SYSTEM_BUILDERS: dict[str, Callable] = {
    "OrinLow-Ekya": partial(_build_gpu, "OrinLow", "Ekya"),
    "OrinHigh-Ekya": partial(_build_gpu, "OrinHigh", "Ekya"),
    "OrinHigh-EOMU": _build_orin_high_eomu,
    "DaCapo-Ekya": _build_dacapo_ekya,
    "DaCapo-Spatial": _build_dacapo_spatial,
    "DaCapo-Spatiotemporal": _build_dacapo_spatiotemporal,
    "RTX3090-Student": partial(_build_gpu, "RTX3090", "Student"),
    "RTX3090-Teacher": partial(_build_gpu, "RTX3090", "Teacher"),
    "RTX3090-Ekya": partial(_build_gpu, "RTX3090", "Ekya"),
    "OrinHigh-Student": partial(_build_gpu, "OrinHigh", "Student"),
    "OrinHigh-Teacher": partial(_build_gpu, "OrinHigh", "Teacher"),
    "OrinLow-Student": partial(_build_gpu, "OrinLow", "Student"),
    "OrinLow-Teacher": partial(_build_gpu, "OrinLow", "Teacher"),
}


def build_system(
    system_name: str,
    pair_name: str,
    config: DaCapoConfig | None = None,
    seed: int = 0,
) -> CLSystemBase:
    """Assemble one of the paper's evaluated systems.

    Args:
        system_name: One of :data:`SYSTEM_BUILDERS`.
        pair_name: Model pair (e.g. ``"resnet18_wrn50"``).
        config: Scheduling hyperparameters (defaults to Table I values).
        seed: Model-initialization seed (shared across systems so every
            system starts from identical weights).
    """
    try:
        builder = SYSTEM_BUILDERS[system_name]
    except KeyError:
        known = ", ".join(SYSTEM_BUILDERS)
        raise ConfigurationError(
            f"unknown system {system_name!r}; known: {known}"
        )
    pair = get_pair(pair_name)
    return builder(pair, config or DaCapoConfig(), seed)


def run_on_scenario(
    system: CLSystemBase,
    scenario: str | ScenarioStream,
    seed: int = 0,
    duration_s: float | None = None,
) -> RunResult:
    """Run a system over a scenario (by name or pre-built stream)."""
    if isinstance(scenario, str):
        if duration_s is not None:
            stream = build_scenario(scenario, duration_s=duration_s)
        else:
            stream = build_scenario(scenario)
    else:
        stream = scenario
    return system.run(stream, seed=seed)


@dataclass(frozen=True)
class SystemCell:
    """One grid cell: one system on one scenario.

    Attributes:
        system: System name from :data:`SYSTEM_BUILDERS`.
        pair: Model-pair name.
        scenario: Scenario name (Table II).
        seed: Model-init and stream seed.
        duration_s: Stream length override (None = scenario default).
    """

    system: str
    pair: str
    scenario: str
    seed: int = 0
    duration_s: float | None = None


def warm_model_caches(cells: Iterable) -> None:
    """Pretrain every distinct (pair, seed) once in this process.

    Forked workers inherit the warmed ``lru_cache`` entries for free;
    spawn workers, subprocess workers, and separate invocations hit the
    on-disk cache instead (see :mod:`repro.learn.cache`).  The MX-format
    arguments do not matter here -- pretrained weights are
    precision-independent -- so the default-format constructors suffice.
    """
    seen: set[tuple[str, int]] = set()
    for cell in cells:
        key = (cell.pair, cell.seed)
        if key in seen:
            continue
        seen.add(key)
        pair = get_pair(cell.pair)
        make_student(pair.student, seed=cell.seed)
        make_teacher(pair.teacher, seed=cell.seed)
