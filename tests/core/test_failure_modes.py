"""Failure-injection tests: starved platforms and degenerate configs.

The paper's OrinLow results show what happens when compute runs out; these
tests push further -- platforms so weak that the training side gets *zero*
resources -- and require graceful degradation instead of crashes.
"""

import numpy as np
import pytest

from repro.core import DaCapoConfig
from repro.core.baselines import FixedWindowSystem, NoRetrainSystem
from repro.core.system import DaCapoSystem
from repro.data import build_scenario
from repro.learn import make_student, make_teacher
from repro.models import get_pair
from repro.platform import GpuPlatform

PAIR = get_pair("resnet18_wrn50")


def starved_gpu() -> GpuPlatform:
    """A GPU barely able to run inference: nothing left for CL kernels."""
    # resnet18 needs 3.64 GFLOPs/frame x 30 FPS = 109 GFLOP/s; with 0.12
    # efficiency a 0.92 TFLOPS device leaves almost no share.
    return GpuPlatform(name="Starved", peak_flops=0.93e12, power_w=10.0)


class TestStarvedPlatform:
    def test_fixed_window_survives_zero_share(self):
        student = make_student(PAIR.student)
        teacher = make_teacher(PAIR.teacher)
        system = FixedWindowSystem(
            "Starved-Ekya", starved_gpu(), PAIR, student, teacher,
            DaCapoConfig(),
        )
        assert system.training_share < 0.05
        stream = build_scenario("S1", duration_s=120)
        result = system.run(stream, seed=0)
        # The run completes; with (almost) no training-side resources the
        # schedule degenerates but the frames are still all scored.
        assert len(result.times) == 3600
        assert 0.0 <= result.average_accuracy() <= 1.0

    def test_dacapo_policy_survives_zero_labeling(self):
        student = make_student(PAIR.student)
        teacher = make_teacher(PAIR.teacher)

        class NoTrainSide(GpuPlatform):
            def labeling_rate(self, model, share=1.0):
                return 0.0

            def training_rate(self, model, share=1.0):
                return 0.0

        platform = NoTrainSide(
            name="InferOnly", peak_flops=5e12, power_w=10.0
        )
        system = DaCapoSystem(
            "NoTrainSide", platform, PAIR, student, teacher, DaCapoConfig()
        )
        stream = build_scenario("S1", duration_s=60)
        result = system.run(stream, seed=0)
        # Labeling takes infinitely long -> one phase spans the whole run,
        # no retraining ever completes.
        assert len(result.retraining_completions()) == 0
        assert len(result.times) == 1800

    def test_slow_inference_drops_frames_proportionally(self):
        weak = GpuPlatform(name="Tiny", peak_flops=0.5e12, power_w=5.0)
        student = make_student(PAIR.student)
        system = NoRetrainSystem(
            "Tiny-Student", weak, PAIR, student, None, DaCapoConfig()
        )
        fps = weak.inference_rate(PAIR.student_graph())
        assert fps < 30
        stream = build_scenario("S1", duration_s=120)
        result = system.run(stream, seed=0)
        expected_drop = 1 - fps / 30
        assert result.frame_drop_rate == pytest.approx(
            expected_drop, abs=0.03
        )

    def test_dropped_frames_count_as_incorrect(self):
        weak = GpuPlatform(name="Tiny", peak_flops=0.5e12, power_w=5.0)
        student = make_student(PAIR.student)
        system = NoRetrainSystem(
            "Tiny-Student", weak, PAIR, student, None, DaCapoConfig()
        )
        stream = build_scenario("S1", duration_s=120)
        result = system.run(stream, seed=0)
        assert not np.any(result.correct[result.dropped])


class TestDegenerateConfigs:
    def test_minimal_buffer_and_counts(self):
        config = DaCapoConfig(
            num_train=16, num_label=16, buffer_capacity=64,
        )
        from repro.core import build_system, run_on_scenario

        system = build_system(
            "DaCapo-Spatiotemporal", "resnet18_wrn50", config=config
        )
        result = run_on_scenario(system, "S1", seed=0, duration_s=60)
        assert len(result.phases) > 0
