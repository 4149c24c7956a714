"""Unit tests for ModelGraph aggregation."""

import pytest

from repro.errors import ModelSpecError
from repro.models import Conv2d, Linear, ModelGraph, Norm
from repro.models.graph import TRAINING_MACS_FACTOR


def tiny_model() -> ModelGraph:
    return ModelGraph(
        name="tiny",
        layers=(
            Conv2d(name="conv", in_channels=3, out_channels=8,
                   kernel=3, stride=1, padding=1, in_size=8),
            Norm(name="bn", channels=8),
            Linear(name="fc", in_features=8, out_features=4),
        ),
        input_size=8,
        num_classes=4,
    )


class TestModelGraph:
    def test_params_sum(self):
        model = tiny_model()
        assert model.params == 3 * 9 * 8 + 16 + (8 * 4 + 4)

    def test_macs_sum(self):
        model = tiny_model()
        assert model.macs() == 64 * 27 * 8 + 8 * 4

    def test_macs_scale_with_batch(self):
        model = tiny_model()
        assert model.macs(batch=4) == 4 * model.macs(batch=1)

    def test_training_macs_factor(self):
        model = tiny_model()
        assert model.training_macs(2) == TRAINING_MACS_FACTOR * model.macs(2)

    def test_gemms_worklist(self):
        model = tiny_model()
        gemms = model.gemms(batch=2)
        assert len(gemms) == 2  # conv + fc; norm has none
        assert gemms[0].m == 2 * 64

    def test_layer_lookup(self):
        assert tiny_model().layer("bn").params == 16

    def test_layer_lookup_missing(self):
        with pytest.raises(ModelSpecError):
            tiny_model().layer("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelSpecError, match="duplicate"):
            ModelGraph(
                name="dup",
                layers=(
                    Norm(name="x", channels=4),
                    Norm(name="x", channels=4),
                ),
            )

    def test_summary_mentions_name(self):
        assert "tiny" in tiny_model().summary()
