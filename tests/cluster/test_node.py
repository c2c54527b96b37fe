"""Unit tests for the storage node (queueing, service, failure injection)."""

from __future__ import annotations

import pytest

from repro.cluster import node as node_module
from repro.cluster.node import NodeConfig, StorageNode
from repro.cluster.stats import NodeCounters
from repro.cluster.storage import Cell
from repro.network.fabric import Message, NetworkFabric
from repro.network.latency import ConstantLatency
from repro.network.topology import TopologyBuilder
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams


@pytest.fixture(autouse=True)
def small_queue(monkeypatch):
    """A four-request queue, so overflow is reachable with a few messages."""
    monkeypatch.setattr(node_module, "QUEUE_CAPACITY", 4)


def build_node(config: NodeConfig | None = None):
    engine = SimulationEngine()
    topo = (
        TopologyBuilder()
        .latencies(intra_rack=ConstantLatency(0.0001), loopback=ConstantLatency(0.00001))
        .datacenter("dc1")
        .rack("r1", nodes=2)
        .build()
    )
    fabric = NetworkFabric(engine, topo, RandomStreams(seed=2))
    counters = NodeCounters()
    node_address, coordinator_address = topo.nodes
    node = StorageNode(
        engine=engine,
        fabric=fabric,
        address=node_address,
        config=config or NodeConfig(
            concurrency=2,
            read_service_time=0.001,
            write_service_time=0.001,
            service_time_cv=0.2,
        ),
        streams=RandomStreams(seed=3),
        counters=counters,
    )
    fabric.register(node_address, node.handle_message)
    responses = []
    fabric.register(coordinator_address, responses.append)
    return engine, fabric, node, coordinator_address, responses, counters


def write_message(src, dst, key="k", ts=1.0, request_id=0) -> Message:
    # Hot-path payloads are tuples: (request_id, cell) for writes.
    cell = Cell(timestamp=ts, value_id=0, key=key, value="v", size_bytes=16)
    return Message(
        msg_id=0,
        src=src,
        dst=dst,
        kind="write_request",
        payload=(request_id, cell),
    )


def read_message(src, dst, key="k", request_id=1, digest=False) -> Message:
    # (request_id, key, digest) for reads.
    return Message(
        msg_id=1,
        src=src,
        dst=dst,
        kind="read_request",
        payload=(request_id, key, digest),
    )


def test_write_is_applied_and_acknowledged():
    engine, fabric, node, coordinator, responses, counters = build_node()
    node.handle_message(write_message(coordinator, node.address))
    engine.run()
    assert node.peek("k") is not None
    assert counters.writes_applied == 1
    assert len(responses) == 1
    assert responses[0].kind == "write_response"


def test_read_returns_stored_cell():
    engine, fabric, node, coordinator, responses, counters = build_node()
    node.handle_message(write_message(coordinator, node.address, ts=3.0))
    engine.run()
    responses.clear()
    node.handle_message(read_message(coordinator, node.address))
    engine.run()
    assert len(responses) == 1
    assert responses[0].kind == "read_response"
    # READ_RESPONSE payload: (request_id, replica, cell).
    assert responses[0].payload[2].timestamp == 3.0
    assert counters.reads_served == 1


def test_read_miss_returns_none_cell():
    engine, fabric, node, coordinator, responses, counters = build_node()
    node.handle_message(read_message(coordinator, node.address, key="missing"))
    engine.run()
    assert responses[0].payload[2] is None


def test_concurrency_limit_queues_requests():
    engine, fabric, node, coordinator, responses, counters = build_node()
    for i in range(4):
        node.handle_message(write_message(coordinator, node.address, key=f"k{i}", request_id=i))
    # Two workers busy, two queued.
    assert node.busy_workers == 2
    assert node.queue_depth == 2
    engine.run()
    assert counters.writes_applied == 4
    assert node.queue_depth == 0


def test_request_queue_is_born_at_the_first_saturation():
    engine, fabric, node, coordinator, responses, counters = build_node()
    for i in range(2):  # two workers: nothing waits yet
        node.handle_message(write_message(coordinator, node.address, key=f"k{i}", request_id=i))
    assert node._queue is None and node.queue_depth == 0
    node.handle_message(write_message(coordinator, node.address, key="k2", request_id=2))
    assert node._queue is not None and node.queue_depth == 1
    engine.run()
    assert counters.writes_applied == 3 and node.queue_depth == 0


def test_queue_capacity_rejects_overflow():
    engine, fabric, node, coordinator, responses, counters = build_node()
    for i in range(20):
        node.handle_message(write_message(coordinator, node.address, key=f"k{i}", request_id=i))
    assert counters.queue_rejections > 0
    engine.run()
    assert counters.writes_applied == 20 - counters.queue_rejections


def test_down_node_drops_requests():
    engine, fabric, node, coordinator, responses, counters = build_node()
    node.go_down()
    assert not node.is_up
    node.handle_message(write_message(coordinator, node.address))
    engine.run()
    assert node.peek("k") is None
    assert counters.dropped_mutations >= 1
    node.come_up()
    assert node.is_up


def test_repair_write_counts_as_read_repair():
    engine, fabric, node, coordinator, responses, counters = build_node()
    message = write_message(coordinator, node.address)
    message.kind = "repair_write"
    node.handle_message(message)
    engine.run()
    assert counters.read_repairs == 1
    assert node.peek("k") is not None


def test_hint_replay_applies_without_worker_slot():
    engine, fabric, node, coordinator, responses, counters = build_node()
    message = write_message(coordinator, node.address)
    message.kind = "hint_replay"
    message.payload = message.payload[1]  # HINT_REPLAY carries the cell itself
    node.handle_message(message)
    assert node.peek("k") is not None  # applied synchronously
    assert node.busy_workers == 0


def response_message(src, dst, kind, payload) -> Message:
    return Message(msg_id=2, src=src, dst=dst, kind=kind, payload=payload)


def test_read_response_payload_goes_to_the_read_sink():
    engine, fabric, node, coordinator, responses, counters = build_node()
    reads, writes = [], []
    node.set_response_sinks(reads.append, writes.append)
    payload = (7, coordinator, None)
    node.handle_message(response_message(coordinator, node.address, "read_response", payload))
    assert reads == [payload] and writes == []
    assert node.busy_workers == 0 and counters.reads_served == 0


def test_write_response_payload_goes_to_the_write_sink():
    engine, fabric, node, coordinator, responses, counters = build_node()
    reads, writes = [], []
    node.set_response_sinks(reads.append, writes.append)
    payload = (8, coordinator, False)
    node.handle_message(response_message(coordinator, node.address, "write_response", payload))
    assert writes == [payload] and reads == []
    assert node.busy_workers == 0 and counters.writes_applied == 0


def test_responses_reach_the_sinks_while_the_node_is_down():
    # A coordinator keeps driving its in-flight operations when the storage
    # process beside it dies.
    engine, fabric, node, coordinator, responses, counters = build_node()
    reads, writes = [], []
    node.set_response_sinks(reads.append, writes.append)
    node.go_down()
    for kind, payload in (("read_response", (1, coordinator, None)),
                          ("write_response", (2, coordinator, True))):
        node.handle_message(response_message(coordinator, node.address, kind, payload))
    assert [p[0] for p in reads] == [1] and [p[0] for p in writes] == [2]
    assert counters.dropped_mutations == 0


def test_unknown_message_kind_raises():
    engine, fabric, node, coordinator, responses, counters = build_node()
    bogus = write_message(coordinator, node.address)
    bogus.kind = "bogus_kind"
    with pytest.raises(ValueError):
        node.handle_message(bogus)


def test_slowdown_increases_service_time():
    config = NodeConfig(
        concurrency=1,
        read_service_time=0.001,
        write_service_time=0.001,
        service_time_cv=0.05,
    )
    engine, fabric, node, coordinator, responses, counters = build_node(config)
    node.handle_message(write_message(coordinator, node.address, key="fast"))
    engine.run()
    fast_time = engine.now

    engine2, fabric2, node2, coordinator2, responses2, counters2 = build_node(config)
    node2.slowdown = 10.0
    node2.handle_message(write_message(coordinator2, node2.address, key="slow"))
    engine2.run()
    assert engine2.now > fast_time * 3


def test_slowdown_validation():
    engine, fabric, node, *_ = build_node()
    with pytest.raises(ValueError):
        node.slowdown = 0.0


def test_digest_reads_are_cheaper_on_average(monkeypatch):
    monkeypatch.setattr(node_module, "DIGEST_SERVICE_FACTOR", 0.25)
    config = NodeConfig(
        concurrency=1,
        read_service_time=0.002,
        write_service_time=0.001,
        service_time_cv=0.05,
    )
    engine, fabric, node, coordinator, responses, counters = build_node(config)
    # Full data read.
    node.handle_message(read_message(coordinator, node.address, key="a", request_id=1))
    engine.run()
    full_read_time = engine.now
    # Digest read on a fresh node (new engine) for a clean comparison.
    engine2, fabric2, node2, coordinator2, responses2, counters2 = build_node(config)
    message = read_message(coordinator2, node2.address, key="a", request_id=2, digest=True)
    node2.handle_message(message)
    engine2.run()
    assert engine2.now < full_read_time


def test_node_config_validation():
    with pytest.raises(ValueError):
        NodeConfig(concurrency=0)
    with pytest.raises(ValueError):
        NodeConfig(read_service_time=0)
    with pytest.raises(ValueError):
        NodeConfig(service_time_cv=0)
