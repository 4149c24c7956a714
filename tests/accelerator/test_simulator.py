"""Tests for the accelerator simulator facade."""

import pytest

from repro.accelerator import AcceleratorSimulator, SystolicArray
from repro.accelerator.simulator import Timing
from repro.errors import PartitionError
from repro.models import get_model
from repro.mx import MX4, MX6, MX9

SIM = AcceleratorSimulator()
ARRAY = SystolicArray()
FULL = ARRAY.full()


class TestTiming:
    def test_addition(self):
        total = Timing(1, 2, 3) + Timing(4, 5, 6)
        assert (total.cycles, total.compute_cycles, total.memory_cycles) == (
            5, 7, 9,
        )


class TestForward:
    def test_student_meets_frame_rate_on_full_array(self):
        model = get_model("resnet18")
        fps = SIM.inference_throughput(model, MX6, FULL)
        assert fps > 30  # must keep up with the 30 FPS stream

    def test_teacher_slower_than_student(self):
        student = get_model("resnet18")
        teacher = get_model("wide_resnet50_2")
        assert SIM.forward_latency_s(teacher, MX6, FULL) > SIM.forward_latency_s(
            student, MX6, FULL
        )

    def test_lower_precision_is_faster(self):
        model = get_model("resnet18")
        t4 = SIM.forward_latency_s(model, MX4, FULL)
        t6 = SIM.forward_latency_s(model, MX6, FULL)
        t9 = SIM.forward_latency_s(model, MX9, FULL)
        assert t4 < t6 < t9

    def test_fewer_rows_slower(self):
        model = get_model("resnet18")
        _, bsa = ARRAY.split(12)
        assert SIM.forward_latency_s(model, MX6, bsa) > SIM.forward_latency_s(
            model, MX6, FULL
        )

    def test_batching_amortizes(self):
        model = get_model("resnet18")
        single = SIM.inference_throughput(model, MX6, FULL, batch=1)
        batched = SIM.inference_throughput(model, MX6, FULL, batch=8)
        assert batched > single

    def test_empty_partition_rejected(self):
        tsa, _ = ARRAY.split(0)
        with pytest.raises(PartitionError):
            SIM.forward_timing(get_model("resnet18"), MX6, tsa)

    def test_cycles_sum_close_to_forward_timing(self):
        model = get_model("resnet18")
        total = sum(
            SIM.gemm_timing(gemm, MX6, FULL).cycles for gemm in model.gemms()
        )
        forward = SIM.forward_timing(model, MX6, FULL).cycles
        # forward_timing adds the vector-unit overhead on top.
        assert forward == pytest.approx(total * (1 + SIM.vector_overhead))


class TestTraining:
    def test_training_costs_about_3x_forward(self):
        model = get_model("resnet18")
        fwd = SIM.forward_timing(model, MX9, FULL, batch=16)
        train = SIM.training_timing(model, MX9, FULL, batch=16)
        ratio = train.compute_cycles / fwd.compute_cycles
        assert 2.5 < ratio < 3.5

    def test_training_throughput_positive(self):
        tsa, _ = ARRAY.split(12)
        tput = SIM.training_throughput(get_model("resnet18"), MX9, tsa, batch=16)
        assert tput > 0

    def test_empty_partition_rejected(self):
        tsa, _ = ARRAY.split(0)
        with pytest.raises(PartitionError):
            SIM.training_timing(get_model("resnet18"), MX9, tsa, batch=16)


class TestConcurrency:
    def test_split_halves_roughly_halve_throughput(self):
        model = get_model("resnet18")
        tsa, bsa = ARRAY.split(8)
        full_fps = SIM.inference_throughput(model, MX6, FULL)
        half_fps = SIM.inference_throughput(model, MX6, bsa)
        assert 0.3 * full_fps < half_fps < 0.8 * full_fps
