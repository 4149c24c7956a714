"""Integration tests for the baseline systems."""

import pytest

from repro.core import PhaseKind, build_system, run_on_scenario
from repro.errors import ConfigurationError

PAIR = "resnet18_wrn50"
SHORT = 300.0


class TestFixedWindow:
    def test_window_cadence(self):
        system = build_system("OrinHigh-Ekya", PAIR)
        result = run_on_scenario(system, "S1", seed=0, duration_s=SHORT)
        retrains = result.retraining_completions()
        # One retraining per 120 s window once the buffer is warm.
        assert 1 <= len(retrains) <= 3

    def test_no_drift_reaction(self):
        system = build_system("OrinHigh-Ekya", PAIR)
        result = run_on_scenario(system, "S5", seed=0, duration_s=SHORT)
        assert len(result.drift_detections()) == 0

    def test_gpu_power(self):
        result = run_on_scenario(
            build_system("OrinHigh-Ekya", PAIR), "S1", seed=0,
            duration_s=SHORT,
        )
        assert result.average_power_w == 60.0

    def test_orinlow_weaker_than_orinhigh_on_drifty_scenario(self):
        low = run_on_scenario(
            build_system("OrinLow-Ekya", PAIR), "S5", seed=0,
            duration_s=600,
        )
        high = run_on_scenario(
            build_system("OrinHigh-Ekya", PAIR), "S5", seed=0,
            duration_s=600,
        )
        assert low.average_accuracy() <= high.average_accuracy() + 0.01


class TestEomu:
    def test_frequent_retrainings(self):
        eomu = run_on_scenario(
            build_system("OrinHigh-EOMU", PAIR), "S5", seed=0,
            duration_s=600,
        )
        ekya = run_on_scenario(
            build_system("OrinHigh-Ekya", PAIR), "S5", seed=0,
            duration_s=600,
        )
        # The paper's Figure 10: EOMU triggers substantially more
        # retrainings than Ekya's fixed windows.
        assert len(eomu.retraining_completions()) > len(
            ekya.retraining_completions()
        )

    def test_monitoring_windows_label_continuously(self):
        result = run_on_scenario(
            build_system("OrinHigh-EOMU", PAIR), "S1", seed=0,
            duration_s=SHORT,
        )
        labels = [p for p in result.phases if p.kind is PhaseKind.LABEL]
        assert len(labels) >= SHORT / 10 / 2  # most windows are monitoring


class TestNoRetrain:
    def test_student_never_retrains(self):
        system = build_system("OrinHigh-Student", PAIR)
        result = run_on_scenario(system, "S1", seed=0, duration_s=SHORT)
        assert len(result.retraining_completions()) == 0

    def test_teacher_drops_frames_on_orin(self):
        system = build_system("OrinHigh-Teacher", PAIR)
        result = run_on_scenario(system, "S1", seed=0, duration_s=SHORT)
        assert result.frame_drop_rate > 0.0

    def test_teacher_clean_on_rtx3090(self):
        system = build_system("RTX3090-Teacher", PAIR)
        result = run_on_scenario(system, "S1", seed=0, duration_s=SHORT)
        assert result.frame_drop_rate == 0.0

    def test_teacher_beats_student_on_drifty_stream(self):
        student = run_on_scenario(
            build_system("RTX3090-Student", PAIR), "S5",
            seed=0, duration_s=600,
        )
        teacher = run_on_scenario(
            build_system("RTX3090-Teacher", PAIR), "S5",
            seed=0, duration_s=600,
        )
        assert teacher.average_accuracy() > student.average_accuracy()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            build_system("RTX3090-Oracle", PAIR)

    def test_unknown_platform_rejected(self):
        with pytest.raises(ConfigurationError):
            build_system("H100-Student", PAIR)


class TestBuilderRegistry:
    def test_all_fig9_systems_build(self):
        from repro.core import SYSTEM_BUILDERS

        # Figure 9's six in legend order, then the rest of Figure 2's.
        assert list(SYSTEM_BUILDERS) == [
            "OrinLow-Ekya", "OrinHigh-Ekya", "OrinHigh-EOMU",
            "DaCapo-Ekya", "DaCapo-Spatial", "DaCapo-Spatiotemporal",
            "RTX3090-Student", "RTX3090-Teacher", "RTX3090-Ekya",
            "OrinHigh-Student", "OrinHigh-Teacher",
            "OrinLow-Student", "OrinLow-Teacher",
        ]
        for name in SYSTEM_BUILDERS:
            assert build_system(name, PAIR).name == name

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError):
            build_system("H100-Ekya", PAIR)
