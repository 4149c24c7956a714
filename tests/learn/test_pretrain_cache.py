"""Tests for the on-disk pretrained-MLP cache."""

import numpy as np
import pytest

from repro.learn import MLPClassifier
from repro.learn.cache import (
    CACHE_ENV,
    cache_dir,
    load_pretrained,
    pretrained_mlp,
    store_pretrained,
)


def make_mlp(seed=11):
    return MLPClassifier.create(6, (8, 5), 4, np.random.default_rng(seed))


class TestDiskCache:
    def test_round_trip_is_bit_exact(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        mlp = make_mlp()
        store_pretrained("student", "resnet18", 0, 3, mlp)
        loaded = load_pretrained("student", "resnet18", 0, 3)
        assert loaded is not None
        assert loaded.num_layers == mlp.num_layers
        for a, b in zip(loaded.weights, mlp.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, mlp.biases):
            np.testing.assert_array_equal(a, b)

    def test_miss_returns_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        assert load_pretrained("student", "resnet18", 0, 99) is None

    def test_keys_are_disjoint(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        store_pretrained("student", "resnet18", 0, 0, make_mlp(1))
        assert load_pretrained("teacher", "resnet18", 0, 0) is None
        assert load_pretrained("student", "resnet34", 0, 0) is None
        assert load_pretrained("student", "resnet18", 1, 0) is None
        assert load_pretrained("student", "resnet18", 0, 1) is None

    def test_pretrain_key_partitions_entries(self, tmp_path, monkeypatch):
        # Changing any pretraining hyperparameter (encoded in the key) must
        # miss rather than serve weights trained under the old recipe.
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        store_pretrained("student", "resnet18", 0, 0, make_mlp(), "800e8lr0.05h16")
        assert (
            load_pretrained("student", "resnet18", 0, 0, "800e12lr0.05h16")
            is None
        )
        assert (
            load_pretrained("student", "resnet18", 0, 0, "800e8lr0.05h16")
            is not None
        )

    def test_empty_env_disables_cache(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "")
        assert cache_dir() is None
        store_pretrained("student", "resnet18", 0, 0, make_mlp())
        assert load_pretrained("student", "resnet18", 0, 0) is None

    def test_corrupt_entry_falls_back_to_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        mlp = make_mlp()
        store_pretrained("student", "resnet18", 0, 0, mlp)
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(b"not a zip archive")
        assert load_pretrained("student", "resnet18", 0, 0) is None

    def test_pretraining_equals_cached_reload(self, tmp_path, monkeypatch):
        # A cold pretraining and a cache hit must produce identical weights.
        from repro.learn.student import _PRETRAIN

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        pretrained_mlp.cache_clear()
        cold = pretrained_mlp(_PRETRAIN, "resnet18", 0, 1234)
        pretrained_mlp.cache_clear()
        warm = pretrained_mlp(_PRETRAIN, "resnet18", 0, 1234)
        for a, b in zip(cold.weights, warm.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(cold.biases, warm.biases):
            np.testing.assert_array_equal(a, b)
        pretrained_mlp.cache_clear()
