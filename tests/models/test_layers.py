"""Unit tests for layer descriptors and GEMM lowering."""

import pytest

from repro.errors import ModelSpecError
from repro.models import Attention, Conv2d, Gemm, Linear, Norm, Pool
from repro.models.layers import conv_out_size


class TestGemm:
    def test_macs(self):
        assert Gemm(2, 3, 4).macs == 24

    def test_rejects_nonpositive(self):
        with pytest.raises(ModelSpecError):
            Gemm(0, 3, 4)


class TestConvOutSize:
    def test_stride1_same_padding(self):
        assert conv_out_size(56, 3, 1, 1) == 56

    def test_stride2(self):
        assert conv_out_size(224, 7, 2, 3) == 112

    def test_maxpool_geometry(self):
        assert conv_out_size(112, 3, 2, 1) == 56

    def test_patch_embedding(self):
        assert conv_out_size(224, 16, 16, 0) == 14


class TestConv2d:
    def make(self, **kwargs):
        defaults = dict(
            name="c", in_channels=64, out_channels=128,
            kernel=3, stride=2, padding=1, in_size=56,
        )
        defaults.update(kwargs)
        return Conv2d(**defaults)

    def test_params_no_bias(self):
        assert self.make().params == 64 * 9 * 128

    def test_params_with_bias(self):
        assert self.make(bias=True).params == 64 * 9 * 128 + 128

    def test_im2col_gemm(self):
        (g,) = self.make().gemms()
        assert g == Gemm(m=28 * 28, k=64 * 9, n=128)

    def test_gemm_batch_scales_m(self):
        (g,) = self.make().gemms(batch=4)
        assert g.m == 4 * 28 * 28

    def test_out_elems(self):
        assert self.make().out_elems == 28 * 28 * 128

    def test_invalid_spec(self):
        with pytest.raises(ModelSpecError):
            Conv2d(name="bad", in_channels=0, out_channels=8, in_size=8)


class TestLinear:
    def test_params(self):
        assert Linear(name="fc", in_features=512, out_features=10).params == 5130

    def test_params_no_bias(self):
        layer = Linear(name="fc", in_features=512, out_features=10, bias=False)
        assert layer.params == 5120

    def test_gemm(self):
        (g,) = Linear(name="fc", in_features=512, out_features=10).gemms(16)
        assert g == Gemm(16, 512, 10)

    def test_tokens_scale_rows(self):
        layer = Linear(name="mlp", in_features=8, out_features=8, tokens=50)
        (g,) = layer.gemms(2)
        assert g.m == 100

    def test_invalid(self):
        with pytest.raises(ModelSpecError):
            Linear(name="fc", in_features=0, out_features=10)


class TestNormPool:
    def test_norm_params(self):
        assert Norm(name="bn", channels=64).params == 128

    def test_norm_no_gemms(self):
        assert Norm(name="bn", channels=64).gemms() == ()

    def test_pool_is_free(self):
        pool = Pool(name="p")
        assert pool.params == 0
        assert pool.macs() == 0

    def test_norm_invalid(self):
        with pytest.raises(ModelSpecError):
            Norm(name="bn", channels=0)


class TestAttention:
    def make(self):
        return Attention(name="attn", dim=768, heads=12, seq=197)

    def test_params(self):
        # QKV (768 -> 2304 + bias) plus output projection (768 -> 768 + bias).
        expected = 768 * 2304 + 2304 + 768 * 768 + 768
        assert self.make().params == expected

    def test_projection_gemms(self):
        qkv, proj = self.make().projection_gemms()
        assert qkv == Gemm(197, 768, 2304)
        assert proj == Gemm(197, 768, 768)

    def test_attention_gemms_per_head(self):
        gemms = self.make().attention_gemms()
        assert len(gemms) == 2 * 12
        score = gemms[0]
        assert score == Gemm(197, 64, 197)

    def test_macs_convention_flag(self):
        attn = self.make()
        with_bmm = attn.macs(1, include_attention_bmm=True)
        without = attn.macs(1, include_attention_bmm=False)
        assert with_bmm - without == 2 * 12 * 197 * 64 * 197

    def test_head_divisibility_enforced(self):
        with pytest.raises(ModelSpecError):
            Attention(name="bad", dim=100, heads=12, seq=10)
