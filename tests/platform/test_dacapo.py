"""Tests for the DaCapo platform wrapper."""

import pytest

from repro.errors import ConfigurationError
from repro.models import get_model
from repro.mx import MX6, MX9
from repro.platform import build_dacapo_platform


class TestConstruction:
    def test_build_partitions_rows(self):
        plat = build_dacapo_platform(rows_tsa=13)
        assert plat.partition.rows_tsa == 13
        assert plat.partition.rows_bsa == 3

    def test_paper_precisions(self):
        plat = build_dacapo_platform(rows_tsa=8)
        assert plat.inference_fmt is MX6
        assert plat.labeling_fmt is MX6
        assert plat.training_fmt is MX9


class TestRates:
    def test_student_inference_meets_frame_rate(self):
        plat = build_dacapo_platform(rows_tsa=13)
        assert plat.inference_rate(get_model("resnet18")) >= 30

    def test_inference_ignores_share(self):
        plat = build_dacapo_platform(rows_tsa=13)
        model = get_model("resnet18")
        assert plat.inference_rate(model, share=0.5) == plat.inference_rate(
            model, share=1.0
        )

    def test_tsa_share_scales_labeling(self):
        plat = build_dacapo_platform(rows_tsa=13)
        teacher = get_model("wide_resnet50_2")
        full = plat.labeling_rate(teacher, share=1.0)
        half = plat.labeling_rate(teacher, share=0.5)
        assert half == pytest.approx(full / 2)

    def test_tsa_share_scales_training(self):
        plat = build_dacapo_platform(rows_tsa=13)
        student = get_model("resnet18")
        full = plat.training_rate(student, share=1.0)
        half = plat.training_rate(student, share=0.5)
        assert half == pytest.approx(full / 2)

    def test_latency_consistent_with_rate(self):
        plat = build_dacapo_platform(rows_tsa=13)
        model = get_model("resnet18")
        latency = plat.simulator.forward_latency_s(
            model, plat.inference_fmt, plat.partition.bsa
        )
        assert latency == pytest.approx(1.0 / plat.inference_rate(model))

    def test_more_tsa_rows_speed_up_labeling(self):
        teacher = get_model("wide_resnet50_2")
        small = build_dacapo_platform(rows_tsa=8)
        large = build_dacapo_platform(rows_tsa=13)
        assert large.labeling_rate(teacher) > small.labeling_rate(teacher)

    def test_invalid_share(self):
        plat = build_dacapo_platform(rows_tsa=8)
        with pytest.raises(ConfigurationError):
            plat.labeling_rate(get_model("wide_resnet50_2"), share=-0.1)


class TestPower:
    def test_chip_power_matches_table4(self):
        plat = build_dacapo_platform(rows_tsa=8)
        assert plat.average_power_w(1.0) == pytest.approx(0.236)

    def test_power_scales_with_utilization(self):
        plat = build_dacapo_platform(rows_tsa=8)
        assert plat.average_power_w(0.2) < plat.average_power_w(0.9)
