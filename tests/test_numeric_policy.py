"""The numeric policy: resolution, the dtype every layer carries, MX dtypes.

Pins the contracts of the one numeric policy:

- policy resolution (env, aliases, errors -- ``float32`` is refused);
- streams, models and buffers carry each declared policy's dtype with no
  NaN/Inf (timestamps stay float64);
- the MX kernels, ``mx_matmul`` and ``effective_quantize`` preserve an
  operand's float dtype, float32 included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SampleBuffer
from repro.data import build_scenario
from repro.errors import ConfigurationError
from repro.learn import MLPClassifier, TrainConfig, train_sgd
from repro.learn.executor import mx_forward
from repro.learn.quantized import effective_quantize
from repro.mx import MX6, MX9, dequantize, quantize, quantize_blocks
from repro.mx.dot import mx_matmul
from repro.numeric import (
    DTYPE_ENV,
    FLOAT64,
    NUMERIC,
    active_policy,
    ensure_float,
    resolve_policy,
    use_policy,
)

#: Every declared policy, by name.
policies = pytest.mark.parametrize(
    "policy", NUMERIC.values, ids=lambda p: p.name
)


def small_stream(duration_s: float = 20.0):
    return build_scenario("S4", duration_s=duration_s)


class TestResolution:
    def test_default_is_float64(self, monkeypatch):
        monkeypatch.delenv(DTYPE_ENV, raising=False)
        assert active_policy() is FLOAT64

    @pytest.mark.parametrize(
        "spelling, expected",
        [
            ("float64", FLOAT64),
            ("FP64", FLOAT64),
            ("double", FLOAT64),
            ("f64", FLOAT64),
            ("64", FLOAT64),
            (" Double ", FLOAT64),
            ("", FLOAT64),
        ],
    )
    def test_env_spellings(self, monkeypatch, spelling, expected):
        monkeypatch.setenv(DTYPE_ENV, spelling)
        assert active_policy() is expected

    def test_unknown_value_raises(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        with pytest.raises(ConfigurationError, match="'float32'"):
            active_policy()

    def test_override_beats_env_and_nests(self, monkeypatch):
        # While an override is installed the variable is not consulted,
        # not even to refuse it; leaving the blocks restores the refusal.
        monkeypatch.setenv(DTYPE_ENV, "float32")
        with use_policy("double"):
            assert active_policy() is FLOAT64
            with use_policy(FLOAT64):
                assert active_policy() is FLOAT64
            assert active_policy() is FLOAT64
        with pytest.raises(ConfigurationError):
            active_policy()

    def test_resolve_passthrough(self):
        assert resolve_policy(FLOAT64) is FLOAT64
        assert resolve_policy(None) is FLOAT64

    def test_ensure_float_preserves_and_defaults(self):
        assert ensure_float(np.float32([1.0])).dtype == np.float32
        assert ensure_float(np.float64([1.0])).dtype == np.float64
        assert ensure_float([1, 2, 3]).dtype == np.float64


@policies
class TestStreamDtype:
    def test_generate_carries_policy_dtype(self, policy):
        with use_policy(policy):
            window = small_stream().generate(0)
        assert window.features.dtype == policy.dtype
        assert window.labels.dtype == np.int64
        assert window.times.dtype == np.float64
        assert np.isfinite(window.features).all()

    def test_materialize_finite_and_policy_typed(self, policy):
        with use_policy(policy):
            window = small_stream().materialize(0)
        assert window.features.dtype == policy.dtype
        assert np.isfinite(window.features).all()

    def test_buffer_carries_policy_dtype(self, policy):
        with use_policy(policy):
            buffer = SampleBuffer(capacity=8, feature_dim=3)
            buffer.add(np.ones((2, 3)), np.zeros(2, dtype=np.int64))
        assert buffer.features.dtype == policy.dtype


@policies
class TestLearnDtype:
    def make_data(self, policy, n=64, dim=8, classes=4):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(n, dim)).astype(policy.dtype)
        y = rng.integers(0, classes, n)
        return x, y

    def test_mlp_carries_policy_dtype_end_to_end(self, policy):
        with use_policy(policy):
            mlp = MLPClassifier.create(
                8, (6,), 4, np.random.default_rng(0)
            )
        assert mlp.dtype == policy.dtype
        x, y = self.make_data(policy)
        logits = mlp.forward(x, MX6)
        assert logits.dtype == policy.dtype
        assert np.isfinite(logits).all()
        loss = mlp.train_step(x, y, lr=1e-2, fmt=MX9)
        assert np.isfinite(loss)
        assert all(w.dtype == policy.dtype for w in mlp.weights)
        assert all(b.dtype == policy.dtype for b in mlp.biases)

    def test_train_sgd_no_nan_and_dtype_stable(self, policy):
        with use_policy(policy):
            mlp = MLPClassifier.create(
                8, (6,), 4, np.random.default_rng(1)
            )
        x, y = self.make_data(policy)
        losses = train_sgd(
            mlp, x, y, TrainConfig(epochs=2, fmt=MX9),
            np.random.default_rng(2),
        )
        assert all(np.isfinite(loss) for loss in losses)
        assert mlp.dtype == policy.dtype

    def test_executor_matches_fast_path_at_policy_dtype(self, policy):
        with use_policy(policy):
            mlp = MLPClassifier.create(
                8, (6,), 4, np.random.default_rng(3)
            )
        x, _ = self.make_data(policy, n=16)
        reference = mx_forward(mlp, x, MX6)
        fast = mlp.forward(x, MX6)
        assert reference.dtype == policy.dtype
        np.testing.assert_array_equal(reference, fast)


class TestMXDtypePolymorphism:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantize_preserves_dtype(self, dtype):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 37)).astype(dtype)
        q = quantize(x, MX6)
        assert q.dtype == dtype
        assert np.isfinite(q).all()

    def test_float32_quantize_equals_float64_values(self):
        # Every MX-representable value is exact in float32, so quantizing
        # the float32 image of a tensor yields the same reals as float64.
        rng = np.random.default_rng(1)
        x64 = rng.normal(size=(4, 64))
        x32 = x64.astype(np.float32)
        q64_of_32 = quantize(x32.astype(np.float64), MX6)
        q32 = quantize(x32, MX6)
        np.testing.assert_array_equal(q32.astype(np.float64), q64_of_32)

    def test_fused_quantize_matches_reference_in_float32(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 33)).astype(np.float32)
        fused = quantize(x, MX9)
        reference = dequantize(quantize_blocks(x, MX9), dtype=np.float32)
        np.testing.assert_array_equal(fused, reference)

    def test_dequantize_dtype_parameter(self):
        x = np.linspace(-2, 2, 16, dtype=np.float32)
        tensor = quantize_blocks(x, MX6)
        assert dequantize(tensor).dtype == np.float64
        assert dequantize(tensor, dtype=np.float32).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_and_effective_quantize_preserve_dtype(self, dtype):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 32)).astype(dtype)
        b = rng.normal(size=(32, 5)).astype(dtype)
        assert mx_matmul(a, b, MX6).dtype == dtype
        assert effective_quantize(a, MX6, 1.3).dtype == dtype
        assert effective_quantize(a, None).dtype == dtype

    def test_int_input_still_becomes_float64(self):
        assert quantize(np.arange(16), MX6).dtype == np.float64
