"""Differential property: per-node streams born at first use ≡ born at build.

A node's ``node.<address>.service`` stream and a coordinator's
``coordinator.<address>.read_repair`` stream are created the first time the
node serves a request or the coordinator rolls a read repair.  That moves
*when* each stream is created, which may not move what any stream draws: a
stream's seed is a function of its name alone.  The oracle here is a cluster
in which every such stream is created up front, in reverse topology order,
before the cluster is built.  The same closed loop must then give the same
run on both: the metric summary, the engine's event count, the fabric's
message count and every node's pre-drawn service times.

It runs on ``SCALE_100`` at QUORUM with read repair rolled on a tenth of
reads, and on ``GRID5000_3SITES_ELASTIC``, whose provisioned spares never
serve, so no spare's stream may exist after the run.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.coordinator import CoordinatorConfig
from repro.control.policies import make_policy
from repro.experiments.scenarios import GRID5000_3SITES_ELASTIC, SCALE_100
from repro.sim.rng import RandomStreams
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A

SCENARIOS = {
    "scale_100": SCALE_100.with_overrides(
        coordinator=CoordinatorConfig(read_repair_chance=0.1)
    ),
    "grid5000_3sites_elastic": GRID5000_3SITES_ELASTIC,
}


def per_node_names(address) -> tuple:
    return (f"node.{address}.service", f"coordinator.{address}.read_repair")


def closed_loop(cluster: SimulatedCluster):
    workload = WORKLOAD_A.scaled(record_count=120, operation_count=600)
    executor = WorkloadExecutor(cluster, workload, make_policy("quorum"), threads=20)
    executor.load()
    metrics = executor.run()
    cluster.settle()
    return metrics.summary()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [5, 23])
def test_lazy_streams_draw_what_eager_streams_draw(name, seed):
    config = SCENARIOS[name].cluster_config(seed=seed)

    lazy = SimulatedCluster(config)
    assert not any(
        n.startswith(("node.", "coordinator.")) for n in lazy.streams.names()
    ), "building a cluster created a per-node stream"

    streams = RandomStreams(seed=config.seed)
    for address in reversed(lazy.topology.nodes):
        for stream_name in reversed(per_node_names(address)):
            streams.stream(stream_name)
    eager = SimulatedCluster(config, streams=streams)

    assert closed_loop(lazy) == closed_loop(eager)
    assert lazy.engine.events_processed == eager.engine.events_processed
    assert lazy.fabric.stats.sent == eager.fabric.stats.sent
    for address, node in lazy.nodes.items():
        assert node._service_pool == eager.nodes[address]._service_pool, address
        assert node._service_index == eager.nodes[address]._service_index, address
    for address, coordinator in lazy.coordinators.items():
        other = eager.coordinators[address]
        assert coordinator._read_repair_pool == other._read_repair_pool, address

    created = set(lazy.streams.names())
    assert any(n.startswith("node.") for n in created)
    assert any(n.startswith("coordinator.") for n in created)
    for spare in lazy.spares:
        assert not created.intersection(per_node_names(spare)), spare
    if name == "grid5000_3sites_elastic":
        assert lazy.spares
