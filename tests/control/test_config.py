"""Unit tests for HarmonyConfig validation."""

from __future__ import annotations

import pytest

from repro.control.policies import HarmonyConfig


def test_defaults_are_valid():
    config = HarmonyConfig()
    assert 0.0 <= config.tolerated_stale_rate <= 1.0
    assert config.monitoring_interval > 0


def test_tolerated_stale_rate_bounds():
    HarmonyConfig(tolerated_stale_rate=0.0)
    HarmonyConfig(tolerated_stale_rate=1.0)
    with pytest.raises(ValueError):
        HarmonyConfig(tolerated_stale_rate=-0.1)
    with pytest.raises(ValueError):
        HarmonyConfig(tolerated_stale_rate=1.1)


def test_monitoring_interval_must_be_positive():
    with pytest.raises(ValueError):
        HarmonyConfig(monitoring_interval=0.0)


def test_config_is_immutable():
    config = HarmonyConfig()
    with pytest.raises(Exception):
        config.tolerated_stale_rate = 0.9  # type: ignore[misc]
