"""Tests for the time-multiplexed DaCapo platform (DaCapo-Ekya's substrate)."""

import pytest

from repro.errors import ConfigurationError
from repro.models import get_model
from repro.platform import DaCapoTimeShared, build_dacapo_platform


class TestTimeShared:
    def test_not_dedicated(self):
        assert DaCapoTimeShared().dedicated_inference is False
        assert build_dacapo_platform(13).dedicated_inference is True

    def test_multiplexing_penalty_applied(self):
        shared = DaCapoTimeShared()
        clean = DaCapoTimeShared(multiplexing_efficiency=1.0)
        model = get_model("resnet18")
        ratio = shared.inference_rate(model) / clean.inference_rate(model)
        assert ratio == pytest.approx(shared.multiplexing_efficiency)

    def test_full_array_beats_partition_at_equal_share(self):
        # The whole point of time-sharing: all 16 rows are available...
        shared = DaCapoTimeShared(multiplexing_efficiency=1.0)
        partitioned = build_dacapo_platform(13)
        teacher = get_model("wide_resnet50_2")
        assert shared.labeling_rate(teacher) > partitioned.labeling_rate(
            teacher
        )

    def test_but_inference_consumes_shared_time(self):
        # ...the cost appears once inference claims its share.
        shared = DaCapoTimeShared()
        partitioned = build_dacapo_platform(14)
        student = get_model("resnet18")
        inference_share = 30.0 / shared.inference_rate(student)
        remaining = 1.0 - inference_share
        teacher = get_model("wide_resnet50_2")
        shared_effective = shared.labeling_rate(teacher, remaining)
        dedicated = partitioned.labeling_rate(teacher, 1.0)
        # With the multiplexing penalty the time-shared configuration's
        # training-side throughput falls near/below the dedicated T-SA's.
        assert shared_effective < dedicated * 1.15

    def test_share_scaling(self):
        shared = DaCapoTimeShared()
        model = get_model("resnet18")
        assert shared.training_rate(model, 0.5) == pytest.approx(
            shared.training_rate(model, 1.0) / 2
        )

    def test_invalid_share(self):
        with pytest.raises(ConfigurationError):
            DaCapoTimeShared().training_rate(get_model("resnet18"), 1.5)

    def test_power_matches_table4(self):
        assert DaCapoTimeShared().average_power_w(1.0) == pytest.approx(0.236)
