"""Tests for the SharingPolicy resolution surface (mirrors NumericPolicy)."""

import pytest

from repro.errors import ConfigurationError
from repro.share.policy import (
    CLUSTER,
    OFF,
    SHARING_ENV,
    SHARING_POLICIES,
    active_sharing,
    resolve_sharing,
    use_sharing,
)


class TestResolution:
    def test_default_is_off(self):
        assert resolve_sharing(None) is OFF
        assert not OFF.enabled

    def test_instances_pass_through(self):
        assert resolve_sharing(OFF) is OFF
        assert resolve_sharing(CLUSTER) is CLUSTER

    @pytest.mark.parametrize(
        "alias", ["", "off", "0", "no", "none", "false", "independent"]
    )
    def test_off_aliases(self, alias):
        assert resolve_sharing(alias) is OFF

    @pytest.mark.parametrize(
        "alias", ["cluster", "on", "1", "yes", "true", "shared", "CLUSTER"]
    )
    def test_cluster_aliases(self, alias):
        assert resolve_sharing(alias) is CLUSTER

    def test_unknown_is_typed(self):
        with pytest.raises(ConfigurationError, match="unknown sharing"):
            resolve_sharing("bogus")

    def test_registry_names(self):
        assert set(SHARING_POLICIES) == {"off", "cluster"}
        assert SHARING_POLICIES["cluster"].enabled


class TestAmbient:
    def test_env_respected(self, monkeypatch):
        monkeypatch.setenv(SHARING_ENV, "cluster")
        assert active_sharing() is CLUSTER
        monkeypatch.setenv(SHARING_ENV, "off")
        assert active_sharing() is OFF

    def test_bad_env_is_typed(self, monkeypatch):
        monkeypatch.setenv(SHARING_ENV, "bogus")
        with pytest.raises(ConfigurationError):
            active_sharing()

    def test_use_sharing_overrides_env(self, monkeypatch):
        monkeypatch.setenv(SHARING_ENV, "off")
        with use_sharing(CLUSTER):
            assert active_sharing() is CLUSTER
            with use_sharing("off"):
                assert active_sharing() is OFF
            assert active_sharing() is CLUSTER
        assert active_sharing() is OFF
