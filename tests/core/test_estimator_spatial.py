"""Tests for the performance estimator and the spatial allocator."""

import pytest

from repro.accelerator import SystolicArray
from repro.core import KernelRates, PerformanceEstimator, allocate_partition
from repro.core.spatial import min_inference_rows
from repro.errors import ConfigurationError, PartitionError
from repro.models import get_model, get_pair
from repro.mx import MX4, MX6, MX9
from repro.platform import build_dacapo_platform, jetson_orin_high

PAIR = get_pair("resnet18_wrn50")


class TestKernelRates:
    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            KernelRates(-1, 0, 0, 0)


class TestEstimator:
    def test_rates_on_dacapo(self):
        platform = build_dacapo_platform(rows_tsa=13)
        rates = PerformanceEstimator(platform, PAIR).rates()
        assert rates.inference_fps > 30
        assert rates.labeling_sps > 0
        assert rates.training_sps > 0

    def test_share_scales_training_side(self):
        platform = jetson_orin_high()
        estimator = PerformanceEstimator(platform, PAIR)
        full = estimator.rates(share=1.0)
        half = estimator.rates(share=0.5)
        assert half.labeling_sps == pytest.approx(full.labeling_sps / 2)
        assert half.inference_fps == full.inference_fps  # dedicated metric


class TestSpatialAllocation:
    def test_min_rows_meets_frame_rate(self):
        array = SystolicArray()
        student = get_model("resnet18")
        rows = min_inference_rows(array, student, frame_rate=30)
        _, bsa = array.split(array.rows - rows)
        from repro.accelerator import AcceleratorSimulator

        sim = AcceleratorSimulator()
        assert sim.inference_throughput(student, MX6, bsa) >= 30
        if rows > 1:
            _, smaller = array.split(array.rows - rows + 1)
            assert sim.inference_throughput(student, MX6, smaller) < 30

    def test_partition_maximizes_tsa(self):
        partition = allocate_partition(
            SystolicArray(), get_model("resnet18"), frame_rate=30
        )
        assert partition.rows_tsa + partition.rows_bsa == 16
        assert partition.rows_tsa >= 8  # students are cheap at MX6

    def test_heavier_student_needs_more_rows(self):
        r18 = min_inference_rows(SystolicArray(), get_model("resnet18"), 30)
        r34 = min_inference_rows(SystolicArray(), get_model("resnet34"), 30)
        assert r34 >= r18

    def test_impossible_frame_rate_raises(self):
        with pytest.raises(PartitionError):
            min_inference_rows(
                SystolicArray(), get_model("wide_resnet101_2"),
                frame_rate=10000, fmt=MX9,
            )

    def test_invalid_frame_rate(self):
        with pytest.raises(PartitionError):
            min_inference_rows(SystolicArray(), get_model("resnet18"), 0)

    def test_higher_precision_needs_more_rows(self):
        lo = min_inference_rows(
            SystolicArray(), get_model("resnet18"), 30, fmt=MX4
        )
        hi = min_inference_rows(
            SystolicArray(), get_model("resnet18"), 30, fmt=MX9
        )
        assert hi >= lo
