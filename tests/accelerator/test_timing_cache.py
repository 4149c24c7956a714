"""Equivalence tests: memoized accelerator timings == uncached timings."""

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorSimulator,
    SystolicArray,
    backward_gemms,
    clear_timing_caches,
)
from repro.accelerator.simulator import Timing
from repro.mx import FORMATS, MX6, MX9
from repro.models.zoo import get_model


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_timing_caches()
    yield
    clear_timing_caches()


def uncached_forward_timing(sim, model, fmt, sub, batch=1):
    """Replicates forward_timing without any memoization."""
    total = Timing(0.0, 0.0, 0.0)
    for gemm in model.gemms(batch):
        clear_timing_caches()
        total = total + sim.gemm_timing(gemm, fmt, sub)
    clear_timing_caches()
    overhead = total.cycles * sim.vector_overhead
    return Timing(
        total.cycles + overhead, total.compute_cycles, total.memory_cycles
    )


def uncached_training_timing(sim, model, fmt, sub, batch):
    """Replicates training_timing without any memoization."""
    total = Timing(0.0, 0.0, 0.0)
    for gemm in model.gemms(batch):
        clear_timing_caches()
        total = total + sim.gemm_timing(gemm, fmt, sub, for_training=True)
        for grad in backward_gemms(gemm):
            clear_timing_caches()
            total = total + sim.gemm_timing(grad, fmt, sub, for_training=True)
    clear_timing_caches()
    overhead = total.cycles * sim.vector_overhead
    return Timing(
        total.cycles + overhead, total.compute_cycles, total.memory_cycles
    )


class TestTimingCacheEquivalence:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_forward_timing_cached_equals_uncached(self, fmt):
        sim = AcceleratorSimulator()
        sub = SystolicArray().full()
        model = get_model("resnet18")
        reference = uncached_forward_timing(sim, model, fmt, sub, batch=1)
        first = sim.forward_timing(model, fmt, sub, 1)
        second = sim.forward_timing(model, fmt, sub, 1)  # cache hit
        assert first == reference
        assert second is first

    def test_training_timing_cached_equals_uncached(self):
        sim = AcceleratorSimulator()
        sub = SystolicArray().full()
        model = get_model("resnet18")
        reference = uncached_training_timing(sim, model, MX9, sub, 16)
        assert sim.training_timing(model, MX9, sub, 16) == reference
        assert sim.training_timing(model, MX9, sub, 16) == reference

    def test_cache_hit_returns_equal_timing_after_clear(self):
        sim = AcceleratorSimulator()
        tsa, bsa = SystolicArray().split(6)
        model = get_model("vit_b_32")
        warm = sim.forward_timing(model, MX6, tsa, 8)
        clear_timing_caches()
        cold = sim.forward_timing(model, MX6, tsa, 8)
        assert warm == cold
        assert bsa.rows != tsa.rows  # distinct sub-accelerators...
        assert sim.forward_timing(model, MX6, bsa, 8) != warm  # ...miss

    def test_distinct_simulators_do_not_share_entries(self):
        sub = SystolicArray().full()
        model = get_model("resnet18")
        gemm = model.gemms(1)[0]
        out_stat = AcceleratorSimulator(dataflow="output_stationary")
        w_stat = AcceleratorSimulator(dataflow="weight_stationary")
        a = out_stat.gemm_timing(gemm, MX6, sub)
        b = w_stat.gemm_timing(gemm, MX6, sub)
        assert a.compute_cycles != b.compute_cycles

    def test_training_and_inference_entries_are_separate(self):
        sim = AcceleratorSimulator()
        sub = SystolicArray().full()
        model = get_model("resnet18")
        fwd = sim.forward_timing(model, MX9, sub, 16)
        train = sim.training_timing(model, MX9, sub, 16)
        assert train.cycles > fwd.cycles


class TestKernelRateMemo:
    def test_system_rates_match_direct_platform_queries(self):
        from repro.core import build_system

        system = build_system("DaCapo-Spatiotemporal", "resnet18_wrn50")
        expected_training = system.platform.training_rate(
            system.pair.student_graph(), system.training_share
        )
        expected_validation = system.platform.labeling_rate(
            system.pair.student_graph(), system.training_share
        )
        # First call computes, second is the memo; both match the platform.
        for _ in range(2):
            assert system.training_sps() == expected_training
            assert system.validation_sps() == expected_validation
            raw_labeling = system.platform.labeling_rate(
                system.pair.teacher_graph(), system.training_share
            )
            expected_labeling = (
                min(raw_labeling, system.config.frame_rate)
                if raw_labeling > 0
                else 0.0
            )
            assert system.labeling_sps() == expected_labeling

    def test_estimator_rates_cached_per_share(self):
        from repro.core import PerformanceEstimator
        from repro.models.zoo import get_pair
        from repro.platform import jetson_orin_high

        est = PerformanceEstimator(jetson_orin_high(), get_pair("resnet18_wrn50"))
        first = est.rates(0.5)
        assert est.rates(0.5) is first  # memoized object
        fresh = PerformanceEstimator(
            jetson_orin_high(), get_pair("resnet18_wrn50")
        )
        assert fresh.rates(0.5) == first  # and equal to an uncached compute
        assert est.rates(1.0) != first
