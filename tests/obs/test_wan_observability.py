"""WAN bandwidth observability: the fabric's transfer trace events.

The fabric emits ``transfer.start`` / ``transfer.end`` /
``transfer.background`` spans through the tracer (attached via
``attach_cluster``) whenever the bandwidth model is on.  The hook must stay
passive: a traced run takes the same scheduling decisions as a bare one.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.network.transfers import BandwidthConfig
from repro.obs.tracer import Tracer

CAPACITY = 10_000.0


@pytest.fixture
def cluster() -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=4,
            datacenters=2,
            replication_factor=2,
            seed=17,
            bandwidth=BandwidthConfig(capacity_bytes_per_s=CAPACITY),
        )
    )


class TestTracerSpans:
    def test_attach_cluster_flips_the_fabric_hook(self, cluster):
        tracer = Tracer().attach_cluster(cluster)
        assert cluster.fabric.tracer is tracer

    def test_background_transfer_emits_an_event(self, cluster):
        tracer = Tracer().attach_cluster(cluster)
        cluster.fabric.start_background_transfer("dc1", "dc2", 5000.0, rate_cap=2000.0)
        events = [e for e in tracer.events if e.kind == "transfer.background"]
        assert len(events) == 1
        assert events[0].fields["pair"] == "dc1|dc2"
        assert events[0].fields["bytes"] == 5000.0
        assert events[0].fields["rate_cap"] == 2000.0

    def test_transfer_spans_bracket_the_streaming_time(self, cluster):
        from repro.cluster.storage import Cell

        tracer = Tracer().attach_cluster(cluster)
        fabric = cluster.fabric
        topo = cluster.topology
        src = next(n for n in topo.nodes if n.datacenter == "dc1")
        dst = next(n for n in topo.nodes if n.datacenter == "dc2")
        payload = Cell(timestamp=0.0, value_id=1, key="k", value="v", size_bytes=5000)
        fabric.send(src, dst, "repair_stream", payload, size_bytes=5000)
        starts = [e for e in tracer.events if e.kind == "transfer.start"]
        assert len(starts) == 1
        assert starts[0].fields["pair"] == "dc1|dc2"
        assert starts[0].fields["bytes"] == 5000.0
        assert starts[0].fields["group"] == "repair"
        assert starts[0].fields["message_kind"] == "repair_stream"
        cluster.engine.run_until(2.0)
        ends = [e for e in tracer.events if e.kind == "transfer.end"]
        assert len(ends) == 1
        # Streaming 5000 B at 10 kB/s ends at 0.5; the end span carries the
        # post-latency delivery instant.
        assert ends[0].time == pytest.approx(0.5)
        assert ends[0].fields["deliver_at"] > 0.5

