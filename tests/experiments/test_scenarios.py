"""Unit tests for the evaluation platform scenarios."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.replication import OldNetworkTopologyStrategy
from repro.experiments.scenarios import EC2, GRID5000, Scenario, ScenarioRegistry
from repro.network.latency import ConstantLatency


def test_both_platforms_use_replication_factor_five():
    assert GRID5000.replication_factor == 5
    assert EC2.replication_factor == 5


def test_paper_harmony_settings_per_platform():
    assert GRID5000.harmony_stale_rates == (0.4, 0.2)
    assert EC2.harmony_stale_rates == (0.6, 0.4)


def test_ec2_network_is_slower_than_grid5000():
    assert EC2.intra_rack_latency.mean() > GRID5000.intra_rack_latency.mean()
    # The paper states roughly a 5x gap in the normal case.
    ratio = EC2.intra_rack_latency.mean() / GRID5000.intra_rack_latency.mean()
    assert 3.0 < ratio < 10.0


def test_ec2_nodes_are_slower_than_grid5000_nodes():
    assert EC2.node.read_service_time > GRID5000.node.read_service_time


def test_cluster_config_builds_a_working_cluster():
    config = GRID5000.cluster_config(seed=3, n_nodes=6)
    cluster = SimulatedCluster(config)
    assert cluster.topology.size == 6
    assert cluster.replication_factor == 5
    assert type(cluster.strategy) is OldNetworkTopologyStrategy


def test_cluster_config_defaults_to_scenario_node_count():
    config = EC2.cluster_config(seed=1)
    assert config.n_nodes == EC2.n_nodes


def test_with_overrides_returns_a_modified_copy():
    modified = GRID5000.with_overrides(n_nodes=40)
    assert modified.n_nodes == 40
    assert GRID5000.n_nodes == 20  # original untouched
    assert modified.name == GRID5000.name


def test_registry_lookup_is_case_insensitive():
    assert ScenarioRegistry.get("GRID5000") is GRID5000
    assert ScenarioRegistry.get("ec2") is EC2
    assert set(ScenarioRegistry.names()) >= {"grid5000", "ec2"}


def test_registry_unknown_name_raises():
    with pytest.raises(KeyError):
        ScenarioRegistry.get("azure")


def test_registry_register_custom_scenario():
    custom = Scenario(
        name="lab",
        n_nodes=4,
        replication_factor=3,
        intra_rack_latency=ConstantLatency(0.0001),
        inter_rack_latency=ConstantLatency(0.0002),
        inter_dc_latency=ConstantLatency(0.0005),
    )
    ScenarioRegistry.register(custom)
    assert ScenarioRegistry.get("lab") is custom
