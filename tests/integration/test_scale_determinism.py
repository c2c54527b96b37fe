"""Scale scenarios and determinism regression tests.

The runtime hot-path refactor (vectorized latency pools, batched link
delivery, event free-list, cached replica walks) must not cost determinism:
two runs of the same scenario with the same seed have to produce
byte-identical metric summaries and identical engine/fabric trace counters.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.replication import NetworkTopologyStrategy
from repro.control.policies import make_policy
from repro.experiments.scenarios import SCALE_100, SCALE_300, ScenarioRegistry
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A


def run_scale_100(seed: int):
    """One small workload on the full 100-node SCALE_100 ring."""
    cluster = SimulatedCluster(SCALE_100.cluster_config(seed=seed))
    workload = WORKLOAD_A.scaled(record_count=120, operation_count=600)
    executor = WorkloadExecutor(cluster, workload, make_policy("quorum"), threads=20)
    executor.load()
    metrics = executor.run()
    return cluster, metrics


class TestScaleScenarios:
    def test_scale_scenarios_are_registered(self):
        assert ScenarioRegistry.get("scale_100") is SCALE_100
        assert ScenarioRegistry.get("scale_300") is SCALE_300

    def test_scale_100_shape(self):
        config = SCALE_100.cluster_config(seed=3)
        assert config.n_nodes == 100
        assert config.replication_factor == 5
        assert config.fabric_delivery == "fifo"

    def test_scale_300_is_multi_dc(self):
        config = SCALE_300.cluster_config(seed=3)
        assert config.n_nodes == 300
        assert config.replication_factors == {"dc1": 3, "dc2": 2, "dc3": 2}
        assert type(SimulatedCluster(config).strategy) is NetworkTopologyStrategy

    def test_scale_100_cluster_serves_operations(self):
        cluster, metrics = run_scale_100(seed=5)
        assert metrics.counters.total == 600
        assert cluster.topology.size == 100
        assert metrics.counters.read_timeouts == 0
        assert metrics.counters.write_timeouts == 0


class TestScale100Determinism:
    @pytest.mark.slow
    def test_same_seed_produces_byte_identical_summaries(self):
        cluster_a, first = run_scale_100(seed=11)
        cluster_b, second = run_scale_100(seed=11)
        assert json.dumps(first.summary(), sort_keys=True) == json.dumps(
            second.summary(), sort_keys=True
        )
        # Trace-level counters must match too, not just the aggregates.
        assert cluster_a.engine.events_processed == cluster_b.engine.events_processed
        assert cluster_a.fabric.stats.sent == cluster_b.fabric.stats.sent
        assert cluster_a.fabric.stats.total_latency == cluster_b.fabric.stats.total_latency

    def test_different_seeds_diverge(self):
        _, a = run_scale_100(seed=11)
        _, b = run_scale_100(seed=12)
        assert a.summary() != b.summary()
